/**
 * @file
 * takobench — batch experiment driver for the paper's evaluation.
 *
 * Reads a declarative suite spec (specs/quick.json, ...), fans the runs out
 * across a pool of child processes (figure benches and takosim), merges
 * every child's machine-readable output into one BENCH_<suite>.json,
 * and exits nonzero iff any run fails or misses a golden tolerance.
 *
 *   takobench specs/quick.json -j8
 *   takobench specs/nightly.json -j4 --out results/BENCH_nightly.json
 *   takobench specs/quick.json --list
 */

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <limits.h>
#include <sys/stat.h>
#include <unistd.h>

#include "expt/report.hh"
#include "expt/runner.hh"
#include "expt/spec.hh"
#include "tools/cli.hh"

using namespace tako::expt;

namespace
{

struct Options
{
    std::string specPath;
    unsigned jobs = 0; ///< 0 = hardware concurrency
    std::string outPath;
    std::string binDir;
    std::string scratchDir;
    bool list = false;
    bool verbose = false;
    /** Extra argv appended to every takosim-kind run (repeatable);
     *  bench-kind runs never see them. */
    std::vector<std::string> takosimArgs;
    /** Heartbeat cadence passed to takosim-kind runs (--progress=N);
     *  0 = no heartbeats. The runner tails the children's logs and
     *  reprints every beat tagged with its run name. */
    std::uint64_t progress = 0;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: takobench SPEC.json [options]\n"
        "\n"
        "  -j N, -jN          run up to N children in parallel\n"
        "                     (default: number of CPUs)\n"
        "  --out=FILE         suite report path\n"
        "                     (default: BENCH_<suite>.json)\n"
        "  --bin-dir=DIR      where the bench/takosim binaries live\n"
        "                     (default: derived from this executable,\n"
        "                     e.g. build/tools -> build/bench)\n"
        "  --scratch=DIR      per-run outputs and logs\n"
        "                     (default: takobench.scratch/<suite>)\n"
        "  --takosim-arg=ARG  append ARG verbatim to every takosim-kind\n"
        "                     run's command line (repeatable; bench-kind\n"
        "                     runs are untouched). Example:\n"
        "                     --takosim-arg=--shards=4\n"
        "  --progress[=N]     ask takosim-kind runs for a heartbeat\n"
        "                     every N cycles (default 1000000) and\n"
        "                     reprint each beat live, tagged with its\n"
        "                     run name\n"
        "  --list             print the suite's runs and exit\n"
        "  --verbose          echo each child command line\n"
        "  --help             this text\n");
    std::exit(code);
}

Options
parse(int argc, char **argv)
{
    Options o;
    const tako::cli::Numbers nums("takobench", usage);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--list") {
            o.list = true;
        } else if (arg == "--verbose") {
            o.verbose = true;
        } else if (key == "--out") {
            o.outPath = val;
        } else if (key == "--bin-dir") {
            o.binDir = val;
        } else if (key == "--scratch") {
            o.scratchDir = val;
        } else if (key == "--takosim-arg") {
            if (val.empty()) {
                std::fprintf(stderr,
                             "takobench: --takosim-arg needs a value\n\n");
                usage(2);
            }
            o.takosimArgs.push_back(val);
        } else if (key == "--progress") {
            o.progress = val.empty() ? 0 : nums.num(key, val);
            if (o.progress == 0)
                o.progress = 1000000;
        } else if (arg.rfind("-j", 0) == 0) {
            std::string n = arg.substr(2); // -jN, or -j N
            if (n.empty()) {
                if (i + 1 >= argc)
                    usage(2);
                n = argv[++i];
            }
            o.jobs = static_cast<unsigned>(nums.num("-j", n, 0, UINT_MAX));
        } else if (arg.rfind("-", 0) == 0) {
            std::fprintf(stderr, "takobench: unknown option '%s'\n\n",
                         arg.c_str());
            usage(2);
        } else if (o.specPath.empty()) {
            o.specPath = arg;
        } else {
            std::fprintf(stderr, "takobench: more than one spec given\n");
            usage(2);
        }
    }
    if (o.specPath.empty()) {
        std::fprintf(stderr, "takobench: no spec file given\n\n");
        usage(2);
    }
    return o;
}

std::string
dirName(const std::string &path)
{
    const auto slash = path.rfind('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

/** Directory holding this executable (for sibling-binary lookup). */
std::string
exeDir()
{
    char buf[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    buf[n] = '\0';
    return dirName(buf);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/**
 * Find the binary for @p run. With --bin-dir, candidates are relative
 * to it; otherwise to this executable's own build tree (takobench sits
 * in build/tools next to takosim, with the benches in build/bench).
 */
std::string
resolveBinary(const RunSpec &run, const std::string &binDir)
{
    const std::string name =
        run.kind == RunKind::Takosim ? "takosim" : run.target;
    std::vector<std::string> candidates;
    if (!binDir.empty()) {
        candidates = {binDir + "/" + name, binDir + "/bench/" + name,
                      binDir + "/tools/" + name};
    } else {
        const std::string here = exeDir();
        candidates = {here + "/" + name, here + "/../bench/" + name,
                      here + "/../tools/" + name};
    }
    for (const std::string &c : candidates) {
        if (fileExists(c))
            return c;
    }
    return candidates.front(); // runner reports it as missing-binary
}

bool
makeDirs(const std::string &path)
{
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 &&
                errno != EEXIST)
                return false;
        }
        if (i < path.size())
            partial += path[i];
    }
    return true;
}

/** Current git revision, best effort ("unknown" outside a checkout). */
std::string
gitRev()
{
    std::string rev = "unknown";
    if (std::FILE *p = ::popen(
            "git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64];
        if (std::fgets(buf, sizeof(buf), p)) {
            rev = buf;
            while (!rev.empty() &&
                   (rev.back() == '\n' || rev.back() == '\r'))
                rev.pop_back();
        }
        ::pclose(p);
        if (rev.empty())
            rev = "unknown";
    }
    return rev;
}

RunCommand
buildCommand(const RunSpec &run, const Options &o,
             const std::string &scratch)
{
    RunCommand cmd;
    cmd.name = run.name;
    cmd.outputJson = scratch + "/" + run.name + ".json";
    cmd.logPath = scratch + "/" + run.name + ".log";
    cmd.timeoutSec = run.timeoutSec;
    cmd.retries = run.retries;

    cmd.argv.push_back(resolveBinary(run, o.binDir));
    if (run.kind == RunKind::Takosim) {
        cmd.argv.push_back(
            (run.traceRun ? "--trace=" : "--workload=") + run.target);
        for (const auto &[k, v] : run.args)
            cmd.argv.push_back("--" + k + "=" + v);
        // Pass-throughs go after the spec's own args so a sweep (e.g.
        // --shards=4 for the CI determinism gate) wins on conflicts.
        for (const std::string &extra : o.takosimArgs)
            cmd.argv.push_back(extra);
        if (o.progress > 0)
            cmd.argv.push_back("--progress=" + std::to_string(o.progress));
        cmd.argv.push_back("--stats-json=" + cmd.outputJson);
    } else {
        if (run.quick)
            cmd.argv.push_back("--quick");
        for (const auto &[k, v] : run.args)
            cmd.argv.push_back("--" + k + "=" + v);
        cmd.argv.push_back("--json=" + cmd.outputJson);
    }
    return cmd;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    SuiteSpec spec;
    std::string err;
    if (!SuiteSpec::parseFile(o.specPath, spec, err)) {
        std::fprintf(stderr, "takobench: %s\n", err.c_str());
        return 2;
    }

    if (o.list) {
        std::printf("suite %s: %zu runs\n", spec.suite.c_str(),
                    spec.runs.size());
        for (const RunSpec &r : spec.runs) {
            std::printf("  %-24s %s %s%s  timeout=%gs retries=%u "
                        "golden=%zu\n",
                        r.name.c_str(),
                        r.kind == RunKind::Bench ? "bench  " : "takosim",
                        r.target.c_str(), r.quick ? " (quick)" : "",
                        r.timeoutSec, r.retries, r.golden.size());
        }
        return 0;
    }

    unsigned jobs = o.jobs;
    if (jobs == 0) {
        const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
        jobs = n > 0 ? static_cast<unsigned>(n) : 1;
    }

    const std::string scratch = o.scratchDir.empty()
                                    ? "takobench.scratch/" + spec.suite
                                    : o.scratchDir;
    if (!makeDirs(scratch)) {
        std::fprintf(stderr, "takobench: cannot create scratch dir %s\n",
                     scratch.c_str());
        return 2;
    }

    std::vector<RunCommand> cmds;
    std::vector<std::string> outputPaths;
    for (const RunSpec &r : spec.runs) {
        cmds.push_back(buildCommand(r, o, scratch));
        outputPaths.push_back(cmds.back().outputJson);
        // Logs append across retries within one invocation; start each
        // invocation clean.
        ::unlink(cmds.back().logPath.c_str());
        if (o.verbose) {
            std::fprintf(stderr, "takobench: %s:", r.name.c_str());
            for (const std::string &a : cmds.back().argv)
                std::fprintf(stderr, " %s", a.c_str());
            std::fprintf(stderr, "\n");
        }
    }

    std::printf("takobench: suite %s, %zu runs, -j%u\n",
                spec.suite.c_str(), cmds.size(), jobs);
    const auto t0 = std::chrono::steady_clock::now();
    // Heartbeat multiplexing: children beat into their own log files
    // and the runner tails them, so concurrent runs' progress lines
    // arrive whole and tagged instead of interleaved mid-line.
    std::function<void(const std::string &, const std::string &)> pulse;
    if (o.progress > 0) {
        pulse = [](const std::string &name, const std::string &line) {
            std::printf("  [%s] %s\n", name.c_str(), line.c_str());
            std::fflush(stdout);
        };
    }
    std::vector<RunOutcome> outcomes = runAll(
        cmds, jobs,
        [](const RunOutcome &out, unsigned done, unsigned total) {
            std::printf("[%u/%u] %-24s %s (%.1fs%s)\n", done, total,
                        out.name.c_str(), runStatusName(out.status),
                        out.wallSec,
                        out.attempts > 1 ? ", retried" : "");
            std::fflush(stdout);
        },
        pulse);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    SuiteReport report =
        buildReport(spec, outcomes, outputPaths, jobs, wall, gitRev());

    const std::string outPath = o.outPath.empty()
                                    ? "BENCH_" + spec.suite + ".json"
                                    : o.outPath;
    std::ofstream out(outPath);
    if (!out) {
        std::fprintf(stderr, "takobench: cannot write %s\n",
                     outPath.c_str());
        return 2;
    }
    report.toJson().write(out);

    printSummary(report, stdout);
    std::printf("report: %s  (logs: %s)\n", outPath.c_str(),
                scratch.c_str());
    return report.pass() ? 0 : 1;
}
