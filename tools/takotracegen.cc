/**
 * @file
 * takotracegen — produce, ingest, and inspect takotrace-v1 files.
 *
 * Three modes:
 *
 *   generate  (--kind=kv|scan|embed|mix --out=FILE): emit a synthetic
 *             production-shaped trace from the workload zoo generators
 *             (deterministic in all parameters, including --seed);
 *   ingest    (--ingest=TEXT --out=FILE): convert a Pin-style text
 *             trace ('-' reads stdin) to takotrace-v1;
 *   dump      (--dump=FILE): print records as canonical text lines
 *             (the inverse of ingest; '--limit' caps the output).
 *
 *   takotracegen --kind=kv --records=200000 --tenants=16 --out=kv.tt
 *   takotracegen --ingest=pinatrace.out --out=app.tt
 *   takotracegen --dump=app.tt --limit=10
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "tools/cli.hh"
#include "trace/gen.hh"
#include "trace/reader.hh"
#include "trace/textio.hh"
#include "trace/writer.hh"

using namespace tako;

namespace
{

struct Options
{
    trace::GenParams gen;
    std::string out;
    std::string ingest;
    std::string dump;
    std::uint64_t dumpLimit = 0; ///< 0 = all
    std::uint32_t chunkRecords = 4096;
};

[[noreturn]] void
usage(int code)
{
    std::string kinds;
    for (const std::string &k : trace::genKinds())
        kinds += (kinds.empty() ? "" : "|") + k;
    std::fprintf(
        code ? stderr : stdout,
        "usage: takotracegen --kind=%s --out=FILE [gen options]\n"
        "       takotracegen --ingest=TEXT --out=FILE   ('-' = stdin)\n"
        "       takotracegen --dump=FILE [--limit=N]\n"
        "\n"
        "generator options (all deterministic, including --seed):\n"
        "  --records=N        records to emit (default 100000)\n"
        "  --tenants=N        tenant population (default 8)\n"
        "  --seed=N           generator seed (default 1)\n"
        "  --theta=F          Zipf skew in (0,1) (default 0.99)\n"
        "  kv:    --keys=N --value-bytes=N --store-frac=F\n"
        "  scan:  --nodes=N (pow2) --leaf-frac=F\n"
        "  embed: --rows=N --row-bytes=N --batch=N\n"
        "\n"
        "encoding options:\n"
        "  --no-timestamps    drop per-record timestamps\n"
        "  --chunk-records=N  records per CRC'd chunk (default 4096)\n",
        kinds.c_str());
    std::exit(code);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool kindSet = false;
    const cli::Numbers nums("takotracegen", usage);
    auto u32 = [&nums](const std::string &key, const std::string &v) {
        return static_cast<std::uint32_t>(nums.num(key, v, 0, UINT32_MAX));
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--help" || key == "-h")
            usage(0);
        else if (key == "--kind") {
            o.gen.kind = val;
            kindSet = true;
        } else if (key == "--out")
            o.out = val;
        else if (key == "--ingest")
            o.ingest = val;
        else if (key == "--dump")
            o.dump = val;
        else if (key == "--limit")
            o.dumpLimit = nums.num(key, val);
        else if (key == "--records")
            o.gen.records = nums.num(key, val);
        else if (key == "--tenants")
            o.gen.tenants = u32(key, val);
        else if (key == "--seed")
            o.gen.seed = nums.num(key, val);
        else if (key == "--theta")
            o.gen.theta = nums.real(key, val);
        else if (key == "--keys")
            o.gen.keys = nums.num(key, val);
        else if (key == "--value-bytes")
            o.gen.valueBytes = u32(key, val);
        else if (key == "--store-frac")
            o.gen.storeFraction = nums.real(key, val);
        else if (key == "--nodes")
            o.gen.nodes = nums.num(key, val);
        else if (key == "--leaf-frac")
            o.gen.leafFraction = nums.real(key, val);
        else if (key == "--rows")
            o.gen.rows = nums.num(key, val);
        else if (key == "--row-bytes")
            o.gen.rowBytes = u32(key, val);
        else if (key == "--batch")
            o.gen.batch = u32(key, val);
        else if (key == "--no-timestamps")
            o.gen.timestamps = false;
        else if (key == "--chunk-records")
            o.chunkRecords = u32(key, val);
        else {
            std::fprintf(stderr,
                         "takotracegen: unknown option '%s' (valid "
                         "options listed below)\n\n",
                         arg.c_str());
            usage(2);
        }
    }
    const int modes = (!o.dump.empty()) + (!o.ingest.empty()) + kindSet;
    if (modes > 1) {
        std::fprintf(stderr,
                     "takotracegen: --kind, --ingest, and --dump are "
                     "mutually exclusive\n");
        std::exit(2);
    }
    if (o.dump.empty() && o.out.empty()) {
        std::fprintf(stderr, "takotracegen: --out=FILE required\n\n");
        usage(2);
    }
    return o;
}

int
doDump(const Options &o)
{
    trace::TraceReader reader;
    if (!reader.open(o.dump)) {
        std::fprintf(stderr, "takotracegen: %s\n",
                     reader.error().c_str());
        return 1;
    }
    trace::TraceRecord rec;
    std::uint64_t n = 0;
    while (reader.next(rec)) {
        trace::formatTraceLine(std::cout, rec, reader.hasTimestamps());
        if (o.dumpLimit && ++n >= o.dumpLimit)
            break;
    }
    if (!reader.error().empty()) {
        std::fprintf(stderr, "takotracegen: %s\n",
                     reader.error().c_str());
        return 1;
    }
    return 0;
}

int
doIngest(const Options &o, trace::TraceWriter &writer)
{
    std::ifstream file;
    if (o.ingest != "-") {
        file.open(o.ingest);
        if (!file) {
            std::fprintf(stderr, "takotracegen: cannot open '%s'\n",
                         o.ingest.c_str());
            return 1;
        }
    }
    std::istream &in = o.ingest == "-" ? std::cin : file;
    const trace::IngestResult res = trace::ingestText(in, writer);
    if (!res.ok) {
        std::fprintf(stderr, "takotracegen: %s: %s\n", o.ingest.c_str(),
                     res.error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "takotracegen: ingested %llu records (%llu lines "
                 "skipped)\n",
                 (unsigned long long)res.records,
                 (unsigned long long)res.skipped);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    if (!o.dump.empty())
        return doDump(o);

    trace::TraceWriter writer;
    trace::TraceWriter::Options wopt;
    wopt.timestamps = o.gen.timestamps;
    wopt.chunkRecords = o.chunkRecords;
    if (!writer.open(o.out, wopt)) {
        std::fprintf(stderr, "takotracegen: %s\n",
                     writer.error().c_str());
        return 1;
    }

    int rc = 0;
    if (!o.ingest.empty()) {
        rc = doIngest(o, writer);
    } else {
        std::string err;
        if (!trace::generateTrace(o.gen, writer, err)) {
            std::string kinds;
            for (const std::string &k : trace::genKinds())
                kinds += (kinds.empty() ? "" : " ") + k;
            std::fprintf(stderr, "takotracegen: %s (kinds: %s)\n",
                         err.c_str(), kinds.c_str());
            rc = 1;
        }
    }
    if (rc != 0) {
        writer.close();
        return rc;
    }
    const std::uint64_t written = writer.recordsWritten();
    if (!writer.close()) {
        std::fprintf(stderr, "takotracegen: %s\n",
                     writer.error().c_str());
        return 1;
    }
    std::fprintf(stderr, "takotracegen: wrote %llu records to %s\n",
                 (unsigned long long)written, o.out.c_str());
    return 0;
}
