/**
 * @file
 * simbench_probe — the benchmark's input generator, traced runner, and
 * per-layer host-cost probes. run.py drives it; it is not a user tool.
 *
 *   simbench_probe gen-kv --seed=N --out=FILE
 *       Write the kv-replay input trace and print, as one JSON line, the
 *       record / line-op / write counts the generator emitted (decoded
 *       back from the file, independently of the replay frontend).
 *
 *   simbench_probe traced --workload=phi-push|kv-replay|phi-sharded
 *       --seed=N [--trace=FILE] [--shards=N] --stats-json=FILE
 *       --spans=FILE
 *       Run the workload on the configuration takosim builds for the
 *       same flags, with spans around every call this file makes into
 *       the simulator, then time each layer's public entry points in
 *       isolation. Spans and probe results are kept in memory and
 *       written to --spans at exit; the run's stats go to --stats-json
 *       in takosim's format so run.py can check them against the
 *       untraced run's.
 *
 * Probes time one layer's public function over many calls and report
 * host ns per call. They run on private instances, after the workload,
 * so they omit the cache and branch-predictor interference the layer
 * sees inside a real run (see README.md).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mem/cache_array.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "trace/gen.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "workloads/graph.hh"
#include "workloads/registry.hh"

using namespace tako;

namespace
{

using Clock = std::chrono::steady_clock;

/** Written with each probe's results so the timed loops are not
 *  optimised away. */
volatile std::uint64_t probeSink = 0;

std::uint64_t
nsSince(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/** In-memory span log: name, parent, start and end (ns since start). */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
    };

    /** RAII scope: opens a span on construction, closes it on exit. */
    class Scope
    {
      public:
        Scope(Spans &log, std::string name) : log_(log)
        {
            idx_ = static_cast<int>(log_.spans_.size());
            log_.spans_.push_back(
                {std::move(name), log_.open_, log_.now(), 0});
            log_.open_ = idx_;
        }
        ~Scope()
        {
            log_.spans_[idx_].end = log_.now();
            log_.open_ = log_.spans_[idx_].parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &log_;
        int idx_ = 0;
    };

    std::uint64_t now() const { return nsSince(t0_, Clock::now()); }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    std::string trace;
    unsigned shards = 1;
    std::string statsJson;
    std::string spans;
    std::string out;
};

/** kv-replay's input: 250K records, 16 tenants, 30% SETs. */
trace::GenParams
kvParams(std::uint64_t seed)
{
    trace::GenParams p;
    p.kind = "kv";
    p.records = 250'000;
    p.tenants = 16;
    p.storeFraction = 0.30;
    p.seed = seed;
    return p;
}

constexpr unsigned kCores = 16;
constexpr std::uint64_t kPhiVertices = 1 << 14;

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "simbench_probe: %s\n", msg.c_str());
    std::exit(1);
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        die("usage: simbench_probe gen-kv|traced [--key=value ...]");
    Options o;
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 0);
        else if (key == "--trace")
            o.trace = val;
        else if (key == "--shards")
            o.shards = static_cast<unsigned>(
                std::max(1ULL, std::strtoull(val.c_str(), nullptr, 0)));
        else if (key == "--stats-json")
            o.statsJson = val;
        else if (key == "--spans")
            o.spans = val;
        else if (key == "--out")
            o.out = val;
        else
            die("unknown option '" + arg + "'");
    }
    return o;
}

/** Line ops the replay frontend expands @p rec into (see replay.cc). */
std::uint64_t
lineOps(const trace::TraceRecord &rec)
{
    const std::uint32_t size = rec.size ? rec.size : 1;
    return 1 + (lineAlign(rec.addr + size - 1) - lineAlign(rec.addr)) /
                   lineBytes;
}

int
genKv(const Options &o)
{
    if (o.out.empty())
        die("gen-kv needs --out=FILE");
    const trace::GenParams p = kvParams(o.seed);
    trace::TraceWriter writer;
    trace::TraceWriter::Options wopt;
    wopt.timestamps = p.timestamps;
    if (!writer.open(o.out, wopt))
        die(writer.error());
    std::string err;
    if (!trace::generateTrace(p, writer, err))
        die(err);
    if (!writer.close())
        die(writer.error());

    trace::TraceReader reader;
    if (!reader.open(o.out))
        die(reader.error());
    std::uint64_t records = 0, ops = 0, writes = 0;
    trace::TraceRecord rec;
    while (reader.next(rec)) {
        ++records;
        const std::uint64_t n = lineOps(rec);
        ops += n;
        if (rec.op == trace::TraceOp::Store ||
            rec.op == trace::TraceOp::StreamStore)
            writes += n;
    }
    if (!reader.error().empty())
        die(reader.error());
    std::printf("{\"records\": %llu, \"line_ops\": %llu, \"writes\": %llu}\n",
                (unsigned long long)records, (unsigned long long)ops,
                (unsigned long long)writes);
    return 0;
}

/** The SystemConfig takosim builds for this workload's flags (run.py's
 *  WORKLOADS). run.py requires the traced run's simulated output to
 *  equal takosim's, so any drift between the two fails every run. */
SystemConfig
takosimConfig(const Options &o, unsigned shards)
{
    SystemConfig sys = SystemConfig::forCores(kCores);
    sys.seed = o.seed;
    sys.mem.latBreakdown = true;
    sys.shards = shards;
    return sys;
}

/** The WorkloadRequest takosim builds for this workload's flags. */
WorkloadRequest
takosimRequest(const Options &o)
{
    WorkloadRequest req;
    req.seed = o.seed;
    req.cores = kCores;
    if (o.workload == "kv-replay") {
        req.tracePath = o.trace;
    } else {
        req.variant = "tako";
        req.vertices = kPhiVertices;
    }
    return req;
}

const WorkloadEntry &
entryFor(const Options &o)
{
    const WorkloadEntry *w =
        findWorkload(o.workload == "kv-replay" ? "trace" : "phi");
    if (!w)
        die("workload registry lost its entry for " + o.workload);
    return *w;
}

struct Access
{
    int tile;
    Addr line;
};

template <typename F>
double
medianOf(int reps, F &&fn)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i)
        v.push_back(fn());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** EventQueue::schedule + step, ns per event, with ~1K pending events
 *  at small random deltas (the simulator's near-future regime). */
double
probeScheduleFire()
{
    constexpr std::uint64_t kEvents = 2'000'000;
    constexpr unsigned kPending = 1024;
    return medianOf(5, [] {
        EventQueue eq;
        std::uint64_t fired = 0, state = 0x9e3779b97f4a7c15ULL;
        struct Ev
        {
            EventQueue *eq;
            std::uint64_t *fired;
            std::uint64_t *state;
            void
            operator()() const
            {
                if (++*fired + kPending > kEvents)
                    return;
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                eq->schedule(1 + (*state & 31), Ev{eq, fired, state});
            }
        };
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < kPending; ++i)
            eq.schedule(1 + i % 32, Ev{&eq, &fired, &state});
        while (eq.step()) {}
        const auto t1 = Clock::now();
        return static_cast<double>(nsSince(t0, t1)) /
               static_cast<double>(fired);
    });
}

struct CacheProbe
{
    double lookupNs = 0;
    double victimFillNs = 0;
    std::uint64_t lookups = 0;
    std::uint64_t fills = 0;
};

/**
 * Replay @p stream through per-tile L1d arrays and the L1 misses
 * through per-tile L2 arrays, at the configured geometry. Times
 * CacheArray::lookup over the whole stream on warmed arrays, and
 * findVictim + fill over the miss stream on fresh ones.
 */
CacheProbe
probeCaches(const std::vector<Access> &stream, const MemParams &mp)
{
    struct Level
    {
        std::uint64_t size;
        unsigned ways;
        ReplPolicy repl;
    };
    const Level levels[] = {{mp.l1Size, mp.l1Ways, ReplPolicy::Lru},
                            {mp.l2Size, mp.l2Ways, mp.l2Repl}};
    auto fresh = [&](const Level &lv) {
        std::vector<CacheArray> v;
        for (unsigned t = 0; t < kCores; ++t)
            v.emplace_back(lv.size, lv.ways, lv.repl);
        return v;
    };

    CacheProbe out;
    std::uint64_t lookupNs = 0, fillNs = 0;
    std::vector<Access> in = stream;
    for (const Level &lv : levels) {
        // Warm pass: the level's own hit/miss behaviour, untimed.
        std::vector<CacheArray> warm = fresh(lv);
        std::vector<Access> misses;
        for (const Access &a : in) {
            CacheArray &c = warm[a.tile];
            if (CacheWay *w = c.lookup(a.line)) {
                c.touch(*w);
            } else {
                misses.push_back(a);
                if (CacheWay *v = c.findVictim(a.line, false))
                    c.fill(*v, a.line, false, 0, false);
            }
        }

        std::uint64_t found = 0;
        lookupNs += static_cast<std::uint64_t>(medianOf(3, [&] {
            const auto t0 = Clock::now();
            for (const Access &a : in)
                found += warm[a.tile].lookup(a.line) != nullptr;
            return static_cast<double>(nsSince(t0, Clock::now()));
        }));
        fillNs += static_cast<std::uint64_t>(medianOf(3, [&] {
            std::vector<CacheArray> cold = fresh(lv);
            const auto t0 = Clock::now();
            for (const Access &a : misses) {
                CacheArray &c = cold[a.tile];
                if (CacheWay *v = c.findVictim(a.line, false))
                    c.fill(*v, a.line, false, 0, false);
            }
            return static_cast<double>(nsSince(t0, Clock::now()));
        }));
        probeSink = probeSink + found;
        out.lookups += in.size();
        out.fills += misses.size();
        in = std::move(misses);
    }
    out.lookupNs = out.lookups
                       ? static_cast<double>(lookupNs) /
                             static_cast<double>(out.lookups)
                       : 0;
    out.victimFillNs = out.fills ? static_cast<double>(fillNs) /
                                       static_cast<double>(out.fills)
                                 : 0;
    return out;
}

/** Mesh::traverse, ns per message: one request-sized and one
 *  line-sized message per demand access, tile to the line's home. */
double
probeTraverse(const std::vector<Access> &stream, const SystemConfig &cfg)
{
    const std::size_t n = std::min<std::size_t>(stream.size(), 1'000'000);
    return medianOf(3, [&] {
        StatsRegistry stats;
        EnergyModel energy(stats, cfg.energy);
        Mesh mesh(cfg.mesh, stats, energy);
        const unsigned tiles = mesh.numTiles();
        Tick now = 0, sink = 0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const int home =
                static_cast<int>(lineNumber(stream[i].line) % tiles);
            sink += mesh.traverse(now, stream[i].tile, home, 8);
            sink += mesh.traverse(now, home, stream[i].tile, 72);
            ++now;
        }
        const double ns = static_cast<double>(nsSince(t0, Clock::now()));
        probeSink = probeSink + sink;
        return ns / static_cast<double>(2 * n);
    });
}

/** trace::TraceReader::next, ns per record over the whole file. */
double
probeDecode(const std::string &path)
{
    trace::TraceReader reader;
    if (!reader.open(path))
        die(reader.error());
    return medianOf(3, [&] {
        reader.rewind();
        trace::TraceRecord rec;
        std::uint64_t n = 0;
        const auto t0 = Clock::now();
        while (reader.next(rec))
            ++n;
        const double ns = static_cast<double>(nsSince(t0, Clock::now()));
        if (!reader.error().empty() || n == 0)
            die("decode probe: " + reader.error());
        return ns / static_cast<double>(n);
    });
}

/** Run the workload once; a non-empty @p stream captures its demand
 *  accesses through the observational SystemConfig::accessTracer. */
RunMetrics
runWorkload(const Options &o, unsigned shards, std::vector<Access> *stream)
{
    SystemConfig sys = takosimConfig(o, shards);
    if (stream) {
        sys.accessTracer = [stream](Tick, const AccessReq &req) {
            stream->push_back({req.tile, lineAlign(req.addr)});
        };
    }
    std::string err;
    RunMetrics m = entryFor(o).run(takosimRequest(o), sys, err);
    if (!err.empty())
        die(err);
    if (!m.stats)
        die("workload returned no stats");
    return m;
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

int
traced(const Options &o)
{
    if (o.workload != "phi-push" && o.workload != "kv-replay" &&
        o.workload != "phi-sharded")
        die("unknown workload '" + o.workload + "'");
    if (o.workload == "kv-replay" && o.trace.empty())
        die("kv-replay needs --trace=FILE");
    if (o.statsJson.empty() || o.spans.empty())
        die("traced needs --stats-json=FILE and --spans=FILE");

    Spans log;
    std::map<std::string, double> probes;
    std::map<std::string, double> extra;
    std::vector<Access> stream;
    const bool monolithic = o.shards == 1;
    {
        Spans::Scope total(log, "traced");
        RunMetrics m;
        {
            Spans::Scope s(log, "workload");
            m = runWorkload(o, o.shards, monolithic ? &stream : nullptr);
        }
        {
            Spans::Scope s(log, "stats_export");
            std::ofstream f(o.statsJson);
            if (!f)
                die("cannot open '" + o.statsJson + "'");
            m.stats->dumpJson(f, {}, {{"host_seconds",
                                       m.stats->get("host.seconds")}});
        }
        {
            // The outputs run.py checks (PHI's correct flag, ...).
            Spans::Scope s(log, "verify");
            extra = m.extra;
        }
        Spans::Scope p(log, "probes");
        if (!monolithic) {
            // The access tracer is fatal under sharding; the demand
            // stream is a function of the inputs alone, so capture it
            // from the monolithic run of the same inputs.
            Spans::Scope s(log, "capture_stream");
            runWorkload(o, 1, &stream);
        }
        const SystemConfig cfg = takosimConfig(o, o.shards);
        {
            Spans::Scope s(log, "probe.system_build");
            probes["system.build_s"] = medianOf(5, [&] {
                const auto t0 = Clock::now();
                System sys(cfg);
                return static_cast<double>(nsSince(t0, Clock::now())) *
                       1e-9;
            });
        }
        if (o.workload != "kv-replay") {
            Spans::Scope s(log, "probe.graph_build");
            GraphParams gp;
            gp.numVertices = kPhiVertices;
            gp.seed = o.seed;
            probes["workloads.graph_build_s"] = medianOf(3, [&] {
                const auto t0 = Clock::now();
                const Graph g = makeCommunityGraph(gp);
                const double s =
                    static_cast<double>(nsSince(t0, Clock::now())) * 1e-9;
                probeSink = probeSink + g.numEdges;
                return s;
            });
        } else {
            Spans::Scope s(log, "probe.decode");
            probes["trace.decode_ns"] = probeDecode(o.trace);
        }
        {
            Spans::Scope s(log, "probe.schedule_fire");
            probes["sim.schedule_fire_ns"] = probeScheduleFire();
        }
        {
            Spans::Scope s(log, "probe.caches");
            const CacheProbe c = probeCaches(stream, cfg.mem);
            probes["mem.cache_lookup_ns"] = c.lookupNs;
            probes["mem.victim_fill_ns"] = c.victimFillNs;
        }
        {
            Spans::Scope s(log, "probe.traverse");
            probes["noc.traverse_ns"] = probeTraverse(stream, cfg);
        }
    }

    std::ofstream f(o.spans);
    if (!f)
        die("cannot open '" + o.spans + "'");
    f.precision(17);
    f << "{\"spans\": [";
    const auto &spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        f << (i ? ", " : "") << "{\"name\": ";
        writeJsonString(f, spans[i].name);
        f << ", \"parent\": " << spans[i].parent
          << ", \"start_ns\": " << spans[i].start
          << ", \"end_ns\": " << spans[i].end << "}";
    }
    f << "],\n \"probes\": {";
    const char *sep = "";
    for (const auto &[k, v] : probes) {
        f << sep;
        writeJsonString(f, k);
        f << ": " << v;
        sep = ", ";
    }
    f << "},\n \"extra\": {";
    sep = "";
    for (const auto &[k, v] : extra) {
        f << sep;
        writeJsonString(f, k);
        f << ": " << v;
        sep = ", ";
    }
    f << "}}\n";
    if (!f)
        die("write failed: '" + o.spans + "'");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options o = parse(argc, argv);
    if (o.mode == "gen-kv")
        return genKv(o);
    if (o.mode == "traced")
        return traced(o);
    die("unknown mode '" + o.mode + "'");
}
