/**
 * @file
 * takosim — command-line driver for the tako-sim workloads.
 *
 * Runs any case-study workload on a configurable system and prints the
 * headline metrics (optionally every counter). Useful for parameter
 * exploration without writing a bench binary.
 *
 *   takosim --workload=decompress --variant=tako
 *   takosim --workload=phi --variant=baseline --cores=8 --l2=16384
 *   takosim --workload=hats --variant=ideal --vertices=16384 --stats
 *   takosim --workload=nvm --variant=tako --txbytes=32768
 *   takosim --workload=primeprobe --variant=tako
 *   takosim --trace=zoo/kv.takotrace --stats
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "gitrev.hh"
#include "mon/sink.hh"
#include "prof/profiler.hh"
#include "sim/shard.hh"
#include "sim/tracesink.hh"
#include "tools/cli.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "workloads/registry.hh"

using namespace tako;

namespace
{

struct Options
{
    std::string workload = "decompress";
    std::string variant = "tako";
    bool workloadSet = false; ///< --workload given explicitly
    bool variantSet = false;  ///< --variant given explicitly
    std::string trace;        ///< takotrace file to replay
    std::string traceRecord;  ///< record the demand stream here
    unsigned cores = 16;
    std::uint64_t l1 = 0, l2 = 0, l3bank = 0; // 0 = default
    std::uint64_t vertices = 1 << 14;
    std::uint64_t txBytes = 16 * 1024;
    std::uint64_t seed = 1;
    bool dumpStats = false;
    std::string statsJson;
    std::string profile;
    bool profileSet = false;
    std::string folded;
    std::string traceOut;
    std::uint32_t traceMask = trace::kAllSpans;
    Tick sampleEvery = 0;
    std::vector<std::string> monSample; ///< sampled stat patterns
    std::string monOut;   ///< takomon-v1 binary series output
    Tick progress = 0;    ///< heartbeat cadence (0 = off)
    std::string logJson;  ///< structured JSONL run log
    /** SystemConfig::shards: quantum-barrier sharded execution (and the
     *  ensemble lane count under --replicate). */
    unsigned shards = 1;
    /** Run N seed-offset replicas (seed, seed+1, ...) across
     *  min(shards, N) lanes; report replica 0 plus ens.* aggregates. */
    unsigned replicate = 1;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: takosim [--workload=decompress|phi|hats|nvm|primeprobe|"
        "aossoa]\n"
        "               [--variant=baseline|...|tako|ideal] [--cores=N]\n"
        "               [--trace=FILE] [--trace-record=FILE]\n"
        "               [--l1=BYTES] [--l2=BYTES] [--l3bank=BYTES]\n"
        "               [--vertices=N] [--txbytes=N] [--seed=N]\n"
        "               [--stats] [--stats-json=FILE] [--profile=FILE]\n"
        "               [--folded=FILE]\n"
        "               [--trace-out=FILE] [--trace-mask=CAT[,CAT...]]\n"
        "               [--mon-every=N] [--mon-sample=PAT[,PAT...]]\n"
        "               [--mon-out=FILE] [--progress[=N]]\n"
        "               [--log-json=FILE]\n"
        "               [--shards=N] [--replicate=N]\n"
        "\n"
        "  --trace=FILE       replay a takotrace-v1 binary memory trace\n"
        "                     through the full memory system (selects\n"
        "                     the trace frontend; incompatible with an\n"
        "                     explicit --workload/--variant)\n"
        "  --trace-record=FILE\n"
        "                     record every core demand access of any\n"
        "                     workload as a takotrace file (under\n"
        "                     --trace: the replayed stream, normalized)\n"
        "  --stats            dump every counter and histogram as text\n"
        "  --stats-json=FILE  write counters, histograms, and the sampled\n"
        "                     time series as JSON ('-' for stdout)\n"
        "  --profile=FILE     enable takoprof (per-Morph callback cycles,\n"
        "                     miss classification, NoC link heat) and\n"
        "                     write takoprof-v1 JSON ('-' for stdout;\n"
        "                     empty value: collect, export only via\n"
        "                     --stats-json prof.* counters)\n"
        "  --folded=FILE      write folded-stack callback profile lines\n"
        "                     (flamegraph.pl input; implies profiling)\n"
        "  --trace-out=FILE   write a Chrome trace-event JSON file\n"
        "                     (loadable in Perfetto / chrome://tracing;\n"
        "                     '-' for stdout)\n"
        "  --trace-mask=SPEC  span categories for --trace-out: comma-\n"
        "                     separated mem, engine, dram, or all\n"
        "                     (default: all)\n"
        "  --mon-every=N      sample counters/histograms every N cycles\n"
        "                     into the time series exported by\n"
        "                     --stats-json and --mon-out\n"
        "  --mon-sample=PATS  comma-separated stat name patterns to\n"
        "                     sample ('*' wildcards; default: all\n"
        "                     non-host.* stats)\n"
        "  --mon-out=FILE     write the sampled series as a takomon-v1\n"
        "                     binary file (requires --mon-every;\n"
        "                     bit-identical across -jN and --shards=N)\n"
        "  --progress[=N]     heartbeat every N cycles (default 1000000):\n"
        "                     sim ticks done, events/s, ETA when the\n"
        "                     frontend knows the work fraction (stderr,\n"
        "                     plus the --log-json log when enabled)\n"
        "  --log-json=FILE    mirror warnings/errors/progress as\n"
        "                     severity-tagged JSON lines (one object\n"
        "                     per line; tail-able during long runs)\n"
        "  --shards=N         run on the sharded conservative executor\n"
        "                     (quantum barriers from the mesh's minimum\n"
        "                     cross-shard latency); every non-host.*\n"
        "                     stat is bit-identical to --shards=1\n"
        "  --replicate=N      run N replicas at seeds seed..seed+N-1\n"
        "                     across min(shards, N) host lanes; output\n"
        "                     is replica 0 plus ens.* aggregates and is\n"
        "                     identical at any lane count; profiles,\n"
        "                     spans, samples, heartbeats and recordings\n"
        "                     observe replica 0\n"
        "  --list-workloads   print workloads and their variants\n"
        "  --version          print the embedded git revision and build type\n"
        "  --help             this text\n");
    std::exit(code);
}

[[noreturn]] void
listWorkloads(int code = 0)
{
    std::FILE *out = code ? stderr : stdout;
    for (const WorkloadEntry &e : workloadRegistry()) {
        if (e.variants.empty())
            std::fprintf(out, "%-12s (no variants; give the file via "
                              "--trace=FILE)\n",
                         e.name.c_str());
        else
            std::fprintf(out, "%-12s variants: %s\n", e.name.c_str(),
                         e.variantHelp().c_str());
    }
    std::exit(code);
}

Options
parse(int argc, char **argv)
{
    Options o;
    const cli::Numbers nums("takosim", usage);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--help" || key == "-h")
            usage(0);
        else if (key == "--version") {
            std::printf("takosim %s %s\n", TAKO_GIT_REV, TAKO_BUILD_TYPE);
            std::exit(0);
        } else if (key == "--list-workloads")
            listWorkloads();
        else if (key == "--workload") {
            o.workload = val;
            o.workloadSet = true;
        } else if (key == "--variant") {
            o.variant = val;
            o.variantSet = true;
        } else if (key == "--trace")
            o.trace = val;
        else if (key == "--trace-record")
            o.traceRecord = val;
        else if (key == "--cores")
            o.cores = static_cast<unsigned>(nums.num(key, val, 1, UINT_MAX));
        else if (key == "--l1")
            o.l1 = nums.num(key, val);
        else if (key == "--l2")
            o.l2 = nums.num(key, val);
        else if (key == "--l3bank")
            o.l3bank = nums.num(key, val);
        else if (key == "--vertices")
            o.vertices = nums.num(key, val);
        else if (key == "--txbytes")
            o.txBytes = nums.num(key, val);
        else if (key == "--seed")
            o.seed = nums.num(key, val);
        else if (key == "--stats")
            o.dumpStats = true;
        else if (key == "--stats-json")
            o.statsJson = val;
        else if (key == "--profile") {
            o.profile = val;
            o.profileSet = true;
        } else if (key == "--folded")
            o.folded = val;
        else if (key == "--trace-out")
            o.traceOut = val;
        else if (key == "--trace-mask") {
            std::string bad;
            if (!trace::parseSpanMask(val, o.traceMask, bad)) {
                std::fprintf(stderr,
                             "takosim: unknown --trace-mask category "
                             "'%s' (valid: mem, engine, dram, all)\n\n",
                             bad.c_str());
                usage(2);
            }
        } else if (key == "--mon-every")
            o.sampleEvery = nums.num(key, val);
        else if (key == "--mon-out")
            o.monOut = val;
        else if (key == "--progress")
            o.progress = val.empty() ? 1000000 : nums.num(key, val);
        else if (key == "--log-json")
            o.logJson = val;
        else if (key == "--shards")
            o.shards = static_cast<unsigned>(nums.num(key, val, 1, UINT_MAX));
        else if (key == "--replicate")
            o.replicate =
                static_cast<unsigned>(nums.num(key, val, 1, UINT_MAX));
        else if (key == "--mon-sample") {
            std::size_t pos = 0;
            while (pos <= val.size()) {
                const std::size_t comma = val.find(',', pos);
                const std::string pat = val.substr(
                    pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
                if (!pat.empty())
                    o.monSample.push_back(pat);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        } else {
            // A misspelled flag must fail loudly: batch drivers
            // (takobench) rely on bad argv being an error, not a
            // silently-default run.
            std::fprintf(stderr,
                         "takosim: unknown option '%s' (valid options "
                         "listed below)\n\n",
                         arg.c_str());
            usage(2);
        }
    }

    // Flag hygiene: the trace file *is* the workload, so combining it
    // with an explicit --workload/--variant is a contradiction, not a
    // precedence puzzle.
    if (!o.trace.empty() && (o.workloadSet || o.variantSet)) {
        std::fprintf(stderr,
                     "takosim: --trace=FILE selects the trace-replay "
                     "frontend and cannot be combined with an explicit "
                     "--workload/--variant\n");
        std::exit(2);
    }
    if (!o.trace.empty())
        o.workload = "trace";
    return o;
}

/**
 * Run one replica of the selected workload at @p seed on a copy of
 * @p sys. Builds its own System and touches no process-global state,
 * so ensemble lanes may call it concurrently (main() gives the
 * observers and the recording to replica 0 alone).
 */
RunMetrics
runOne(const Options &o, SystemConfig sys, std::uint64_t seed)
{
    sys.seed = seed;
    const WorkloadEntry *w = findWorkload(o.workload);
    if (!w) {
        std::fprintf(stderr, "takosim: unknown workload '%s'\n\n",
                     o.workload.c_str());
        listWorkloads(2);
    }
    if (!w->variants.empty() &&
        std::find(w->variants.begin(), w->variants.end(), o.variant) ==
            w->variants.end()) {
        std::fprintf(stderr,
                     "takosim: unknown variant '%s' for workload '%s' "
                     "(valid: %s)\n",
                     o.variant.c_str(), o.workload.c_str(),
                     w->variantHelp().c_str());
        std::exit(2);
    }

    WorkloadRequest req;
    req.variant = o.variant;
    req.seed = seed;
    req.cores = o.cores;
    req.vertices = o.vertices;
    req.txBytes = o.txBytes;
    req.tracePath = o.trace;
    std::string err;
    RunMetrics m = w->run(req, sys, err);
    if (!err.empty()) {
        std::fprintf(stderr, "takosim: %s\n", err.c_str());
        std::exit(1);
    }
    return m;
}

/**
 * Open one output before the run, so a bad path exits 1 before any
 * simulation rather than after it; an empty path means the output is
 * off. @p open creates the file and says whether it could.
 */
template <typename Open>
void
openOutput(const std::string &path, Open open)
{
    if (path.empty() || open(path))
        return;
    std::fprintf(stderr, "takosim: cannot open '%s'\n", path.c_str());
    std::exit(1);
}

/** openOutput's opener for a text output: '-' is stdout, else @p f. */
auto
textFile(std::ofstream &f)
{
    return [&f](const std::string &path) {
        if (path != "-")
            f.open(path);
        return path == "-" || f.is_open();
    };
}

/** Where text output @p path writes. */
std::ostream &
textOut(const std::string &path, std::ofstream &f)
{
    return path == "-" ? std::cout : f;
}

void
report(const RunMetrics &m, std::FILE *out)
{
    std::fprintf(out, "variant      : %s\n", m.label.c_str());
    std::fprintf(out, "cycles       : %llu\n",
                 (unsigned long long)m.cycles);
    std::fprintf(out, "energy (pJ)  : %.0f\n", m.energy);
    std::fprintf(out, "dram accesses: %llu\n",
                 (unsigned long long)m.dramAccesses());
    std::fprintf(out, "core instrs  : %llu\n",
                 (unsigned long long)m.coreInstrs);
    std::fprintf(out, "engine instrs: %llu\n",
                 (unsigned long long)m.engineInstrs);
    for (const auto &[k, v] : m.extra)
        std::fprintf(out, "%-13s: %.3f\n", k.c_str(), v);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options o = parse(argc, argv);

    SystemConfig sys = SystemConfig::forCores(o.cores);
    sys.seed = o.seed;
    if (o.l1)
        sys.mem.l1Size = o.l1;
    if (o.l2)
        sys.mem.l2Size = o.l2;
    if (o.l3bank)
        sys.mem.l3BankSize = o.l3bank;
    if (!o.monOut.empty() && o.sampleEvery == 0) {
        std::fprintf(stderr,
                     "takosim: --mon-out=FILE requires --mon-every=N "
                     "(the file holds the sampled series)\n");
        return 2;
    }
    if (!o.logJson.empty()) {
        if (!setJsonLog(o.logJson)) {
            std::fprintf(stderr, "takosim: cannot open '%s'\n",
                         o.logJson.c_str());
            return 1;
        }
        jsonLogEvent("run",
                     {{"tool", "takosim"},
                      {"workload", o.workload},
                      {"variant", o.variant},
                      {"git_rev", TAKO_GIT_REV}},
                     {{"cores", static_cast<double>(o.cores)},
                      {"seed", static_cast<double>(o.seed)},
                      {"shards", static_cast<double>(o.shards)}});
    }
    // takosim exists to inspect runs; always collect the mem.breakdown.*
    // latency attribution (benches leave it off to keep the hot path
    // lean — see MemParams::latBreakdown).
    sys.mem.latBreakdown = true;
    sys.shards = o.shards;

    std::ofstream statsJsonFile, profileFile, foldedFile, traceFile;
    trace::TraceWriter recording;
    openOutput(o.statsJson, textFile(statsJsonFile));
    openOutput(o.profile, textFile(profileFile));
    openOutput(o.folded, textFile(foldedFile));
    openOutput(o.traceOut, textFile(traceFile));
    openOutput(o.traceRecord, [&recording](const std::string &path) {
        return recording.open(path, {.timestamps = true});
    });

    // takosim's observers, on the reported run's list.
    std::optional<trace::ChromeTraceWriter> spans;
    std::optional<prof::Profiler> profiler;
    std::optional<mon::TimeSeriesSink> sampler;
    std::optional<mon::Heartbeat> heartbeat;
    if (!o.traceOut.empty())
        sys.observers.push_back(
            &spans.emplace(textOut(o.traceOut, traceFile), o.traceMask));
    if (o.profileSet || !o.folded.empty())
        sys.observers.push_back(&profiler.emplace());
    if (o.sampleEvery > 0)
        sys.observers.push_back(&sampler.emplace(mon::TimeSeriesSink::Options{
            o.sampleEvery, o.monSample, o.monOut}));
    if (o.progress > 0) {
        sys.observers.push_back(&heartbeat.emplace(
            o.progress, [](const mon::ProgressBeat &b) {
                mon::printProgressBeat(b);
                if (jsonLogEnabled())
                    jsonLogEvent(
                        "progress", {},
                        {{"tick", static_cast<double>(b.tick)},
                         {"events", static_cast<double>(b.events)},
                         {"host_seconds", b.hostSeconds},
                         {"events_per_sec", b.eventsPerSec},
                         {"fraction_done", b.fractionDone}});
            }));
    }
    if (!o.traceRecord.empty())
        sys.accessTracer = trace::recordAccesses(recording);

    RunMetrics m;
    if (o.replicate == 1) {
        m = runOne(o, sys, o.seed);
        if (o.workload == "primeprobe") {
            std::printf("detected      : %s\n",
                        m.extra["primeprobe.detected"] != 0 ? "yes"
                                                            : "no");
            std::printf("bits recovered: %.0f\n",
                        m.extra["primeprobe.bits_recovered"]);
        }
    } else {
        // Seed-offset ensemble across host lanes. Each replica runs
        // one domain (its own System, shards=1) — --shards spends the
        // host-parallelism budget on lanes here, and the job -> lane
        // map is index-pure, so the merged output is identical at any
        // lane count. The observers and the recording watch replica 0,
        // the reported run; the other replicas run without them.
        SystemConfig repSys = sys;
        repSys.shards = 1;
        SystemConfig quietSys = repSys;
        quietSys.observers.clear();
        quietSys.accessTracer = nullptr;
        std::vector<RunMetrics> reps(o.replicate);
        std::vector<std::function<void()>> jobs;
        for (unsigned i = 0; i < o.replicate; ++i) {
            jobs.push_back([&o, &repSys, &quietSys, &reps, i] {
                reps[i] = runOne(o, i == 0 ? repSys : quietSys, o.seed + i);
            });
        }
        runLanes(std::min(o.shards, o.replicate), jobs);

        // Replica 0 is the reported run; fold the rest into ens.*
        // aggregates in replica order (determinism: pure reduction
        // over per-replica deterministic values).
        m = reps[0];
        double cycTotal = 0, cycMax = 0, energyTotal = 0, dramTotal = 0;
        for (const RunMetrics &r : reps) {
            cycTotal += static_cast<double>(r.cycles);
            cycMax = std::max(cycMax, static_cast<double>(r.cycles));
            energyTotal += r.energy;
            dramTotal += static_cast<double>(r.dramAccesses());
        }
        StatsRegistry &reg = *m.stats;
        reg.counter("ens.replicas", "runs", "replicas in this ensemble")
            .set(o.replicate);
        reg.counter("ens.cycles.total", "cycles",
                    "summed simulated cycles across replicas")
            .set(cycTotal);
        reg.counter("ens.cycles.max", "cycles",
                    "slowest replica's simulated cycles")
            .set(cycMax);
        reg.counter("ens.energy.total", "pJ",
                    "summed simulated energy across replicas")
            .set(energyTotal);
        reg.counter("ens.dram.total", "accesses",
                    "summed DRAM accesses across replicas")
            .set(dramTotal);
    }

    if (spans) {
        spans->close();
        std::fprintf(stderr, "takosim: wrote %llu trace events to %s\n",
                     (unsigned long long)spans->eventsWritten(),
                     o.traceOut.c_str());
    }
    if (!o.traceRecord.empty() && !recording.close()) {
        std::fprintf(stderr, "takosim: %s\n", recording.error().c_str());
        return 1;
    }

    // Keep stdout machine-readable when any JSON/folded output goes
    // there: the human report moves to stderr.
    const bool stdoutTaken = o.statsJson == "-" || o.profile == "-" ||
                             o.folded == "-" || o.traceOut == "-";
    report(m, stdoutTaken ? stderr : stdout);
    if (o.dumpStats && m.stats) {
        std::ostream &os = stdoutTaken ? std::cerr : std::cout;
        os << "\n";
        m.stats->dump(os);
    }
    if (!o.statsJson.empty() && m.stats) {
        const std::vector<std::pair<std::string, std::string>> header{
            {"git_rev", TAKO_GIT_REV}, {"build_type", TAKO_BUILD_TYPE}};
        // Host throughput as first-class top-level fields so perf
        // tooling does not have to dig through the counters object.
        const std::vector<std::pair<std::string, double>> numericHeader{
            {"host_seconds", m.stats->get("host.seconds")},
            {"sim_events", m.stats->get("host.sim_events")},
            {"events_per_sec", m.stats->get("host.events_per_sec")}};
        m.stats->dumpJson(textOut(o.statsJson, statsJsonFile), header,
                          numericHeader);
    }
    if (profiler) {
        const std::vector<std::pair<std::string, std::string>> header{
            {"git_rev", TAKO_GIT_REV},
            {"workload", o.workload},
            {"variant", o.variant}};
        if (!o.profile.empty())
            profiler->writeJson(textOut(o.profile, profileFile), header);
        if (!o.folded.empty())
            profiler->writeFolded(textOut(o.folded, foldedFile));
    }
    if (jsonLogEnabled()) {
        jsonLogEvent(
            "done", {},
            {{"cycles", static_cast<double>(m.cycles)},
             {"energy", m.energy},
             {"host_seconds",
              m.stats ? m.stats->get("host.seconds") : 0.0}});
        setJsonLog("");
    }
    return 0;
}
