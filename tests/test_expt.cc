/**
 * @file
 * Tests for the experiment-orchestration subsystem (src/expt): the JSON
 * reader, the spec parser's strict validation, golden-metric checking,
 * the multi-process runner (timeouts, retries, crash surfacing), and
 * end-to-end determinism of aggregated metrics across -j levels.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <cerrno>

#include <limits.h>
#include <sys/wait.h>
#include <unistd.h>

#include "expt/json.hh"
#include "expt/report.hh"
#include "expt/runner.hh"
#include "expt/spec.hh"
#include "trace/reader.hh"

using namespace tako::expt;

namespace
{

/** Unique scratch dir per test, under TMPDIR. */
std::string
makeScratch()
{
    char tmpl[] = "/tmp/tako_expt_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    out << content;
}

RunCommand
shCommand(const std::string &name, const std::string &script,
          const std::string &scratch, double timeoutSec = 30,
          unsigned retries = 0)
{
    RunCommand cmd;
    cmd.name = name;
    cmd.argv = {"/bin/sh", "-c", script};
    cmd.outputJson = scratch + "/" + name + ".json";
    cmd.logPath = scratch + "/" + name + ".log";
    cmd.timeoutSec = timeoutSec;
    cmd.retries = retries;
    return cmd;
}

// ---------------------------------------------------------------- Json

TEST(ExptJson, ParsesNestedDocument)
{
    std::string err;
    Json doc = Json::parse(
        R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5e2}})",
        &err);
    EXPECT_TRUE(err.empty()) << err;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc["a"].asNumber(), 1.0);
    ASSERT_TRUE(doc["b"].isArray());
    EXPECT_EQ(doc["b"].asArray().size(), 3u);
    EXPECT_TRUE(doc["b"].asArray()[0].asBool());
    EXPECT_TRUE(doc["b"].asArray()[1].isNull());
    EXPECT_EQ(doc["b"].asArray()[2].asString(), "x\n");
    EXPECT_EQ(doc["c"]["d"].asNumber(), -250.0);
    EXPECT_TRUE(doc["missing"].isNull());
}

TEST(ExptJson, RoundTripsThroughWriter)
{
    std::string err;
    Json doc = Json::parse(
        R"({"s": "q\"uote", "n": 0.5, "arr": [1, 2], "obj": {}})", &err);
    ASSERT_TRUE(err.empty()) << err;
    Json again = Json::parse(doc.str(), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(doc.str(), again.str());
    EXPECT_EQ(again["s"].asString(), "q\"uote");
}

TEST(ExptJson, ReportsErrorsWithLineNumbers)
{
    std::string err;
    EXPECT_TRUE(Json::parse("{\n  \"a\": 1,\n  bad\n}", &err).isNull());
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;

    EXPECT_TRUE(Json::parse("{\"a\": 1} trailing", &err).isNull());
    EXPECT_NE(err.find("trailing"), std::string::npos);

    EXPECT_TRUE(Json::parse(R"({"a": 1, "a": 2})", &err).isNull());
    EXPECT_NE(err.find("duplicate"), std::string::npos);

    EXPECT_TRUE(Json::parse(R"({"a": )", &err).isNull());
    EXPECT_FALSE(err.empty());

    EXPECT_TRUE(Json::parse("", &err).isNull());
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------- Spec

const char *kValidSpec = R"({
  "suite": "demo",
  "defaults": {"timeout_sec": 45, "retries": 2, "quick": true},
  "runs": [
    {"name": "f6", "bench": "fig06_decompression",
     "golden": {"tako.speedup": {"value": 2.5, "rel_tol": 0.2},
                "tako.correct": 1}},
    {"name": "sim", "takosim": {"workload": "decompress",
                                "variant": "tako", "seed": 7},
     "timeout_sec": 90, "quick": false}
  ]
})";

TEST(ExptSpec, ParsesValidSuite)
{
    std::string err;
    SuiteSpec spec;
    ASSERT_TRUE(SuiteSpec::parse(Json::parse(kValidSpec), spec, err))
        << err;
    EXPECT_EQ(spec.suite, "demo");
    ASSERT_EQ(spec.runs.size(), 2u);

    const RunSpec &f6 = spec.runs[0];
    EXPECT_EQ(f6.kind, RunKind::Bench);
    EXPECT_EQ(f6.target, "fig06_decompression");
    EXPECT_TRUE(f6.quick);             // inherited from defaults
    EXPECT_EQ(f6.timeoutSec, 45.0);    // inherited
    EXPECT_EQ(f6.retries, 2u);         // inherited
    ASSERT_EQ(f6.golden.size(), 2u);
    EXPECT_EQ(f6.golden.at("tako.speedup").value, 2.5);
    EXPECT_EQ(f6.golden.at("tako.speedup").relTol, 0.2);
    EXPECT_EQ(f6.golden.at("tako.correct").value, 1.0);
    EXPECT_EQ(f6.golden.at("tako.correct").relTol, 0.0);

    const RunSpec &sim = spec.runs[1];
    EXPECT_EQ(sim.kind, RunKind::Takosim);
    EXPECT_EQ(sim.target, "decompress");
    EXPECT_FALSE(sim.quick);           // per-run override
    EXPECT_EQ(sim.timeoutSec, 90.0);   // per-run override
    // workload is the target, not a duplicated argument.
    for (const auto &[k, v] : sim.args)
        EXPECT_NE(k, "workload");
    bool saw_variant = false;
    for (const auto &[k, v] : sim.args)
        saw_variant |= (k == "variant" && v == "tako");
    EXPECT_TRUE(saw_variant);
}

TEST(ExptSpec, RejectsMalformedSpecs)
{
    auto fails = [](const std::string &text, const std::string &expect) {
        std::string err;
        SuiteSpec spec;
        EXPECT_FALSE(
            SuiteSpec::parse(Json::parse("{\"suite\": \"s\", " + text +
                                         "}"),
                             spec, err))
            << text;
        EXPECT_NE(err.find(expect), std::string::npos)
            << "error was: " << err;
    };

    // Misspelled key at run scope.
    fails(R"("runs": [{"name": "a", "bench": "x", "timeout_secs": 9}])",
          "unknown key \"timeout_secs\"");
    // Neither bench nor takosim.
    fails(R"("runs": [{"name": "a"}])", "exactly one");
    // Both bench and takosim.
    fails(R"("runs": [{"name": "a", "bench": "x",
                       "takosim": {"workload": "w"}}])",
          "exactly one");
    // Duplicate run names.
    fails(R"("runs": [{"name": "a", "bench": "x"},
                      {"name": "a", "bench": "y"}])",
          "duplicate");
    // Missing workload.
    fails(R"("runs": [{"name": "a", "takosim": {"variant": "t"}}])",
          "workload");
    // Bad golden tolerance.
    fails(R"("runs": [{"name": "a", "bench": "x",
                       "golden": {"m": {"value": 1, "rel_tol": -1}}}])",
          ">= 0");
    // Golden without a value.
    fails(R"("runs": [{"name": "a", "bench": "x",
                       "golden": {"m": {"rel_tol": 0.5}}}])",
          "value");
    // Empty runs array.
    fails(R"("runs": [])", "non-empty");

    std::string err;
    SuiteSpec spec;
    EXPECT_FALSE(SuiteSpec::parse(Json::parse(R"({"runs": []})"), spec,
                                  err));
    EXPECT_FALSE(SuiteSpec::parse(Json::parse("[1, 2]"), spec, err));
    // Top-level typo.
    EXPECT_FALSE(SuiteSpec::parse(
        Json::parse(R"({"suite": "s", "run": []})"), spec, err));
    EXPECT_NE(err.find("unknown key"), std::string::npos);
}

TEST(ExptSpec, ParsesExtrasAndRejectsBadShapes)
{
    std::string err;
    SuiteSpec spec;
    ASSERT_TRUE(SuiteSpec::parse(
        Json::parse(R"({
          "suite": "s",
          "runs": [{"name": "a", "bench": "x",
                    "extras": ["prof.cb.count", "prof.noc.link.busy_max"]}]
        })"),
        spec, err))
        << err;
    ASSERT_EQ(spec.runs[0].extras.size(), 2u);
    EXPECT_EQ(spec.runs[0].extras[0], "prof.cb.count");

    // Not an array.
    EXPECT_FALSE(SuiteSpec::parse(
        Json::parse(R"({"suite": "s",
          "runs": [{"name": "a", "bench": "x", "extras": "m"}]})"),
        spec, err));
    EXPECT_NE(err.find("extras"), std::string::npos);
    // Non-string entry.
    EXPECT_FALSE(SuiteSpec::parse(
        Json::parse(R"({"suite": "s",
          "runs": [{"name": "a", "bench": "x", "extras": [1]}]})"),
        spec, err));
    EXPECT_NE(err.find("extras"), std::string::npos);
}

TEST(ExptSpec, GoldenToleranceSemantics)
{
    GoldenMetric exact{4.0, 0, 0};
    EXPECT_TRUE(exact.accepts(4.0));
    EXPECT_FALSE(exact.accepts(4.0001));

    GoldenMetric rel{100.0, 0.1, 0};
    EXPECT_TRUE(rel.accepts(109.9));
    EXPECT_TRUE(rel.accepts(90.1));
    EXPECT_FALSE(rel.accepts(111.0));

    GoldenMetric abs{0.0, 0.5, 2.0}; // rel slack of 0 value -> abs wins
    EXPECT_TRUE(abs.accepts(1.9));
    EXPECT_FALSE(abs.accepts(2.1));
}

// -------------------------------------------------------------- Report

TEST(ExptReport, ExtractsBothChildFormats)
{
    Json bench = Json::parse(
        R"({"bench": "f", "metrics": {"a.speedup": 2, "a.cycles": 10},
            "rows": []})");
    auto m1 = extractMetrics(bench);
    EXPECT_EQ(m1.size(), 2u);
    EXPECT_EQ(m1.at("a.speedup"), 2.0);

    Json stats = Json::parse(
        R"({"counters": {"core.instrs": {"value": 42, "unit": "instr"},
                         "dram.reads": {"value": 7}},
            "histograms": {"lat": {"count": 3, "sum": 30, "mean": 10,
                                   "max": 20, "bucket_width": 8,
                                   "buckets": [1, 2]}}})");
    auto m2 = extractMetrics(stats);
    EXPECT_EQ(m2.at("core.instrs"), 42.0);
    EXPECT_EQ(m2.at("dram.reads"), 7.0);
    EXPECT_EQ(m2.at("lat.mean"), 10.0);
    EXPECT_EQ(m2.at("lat.count"), 3.0);
}

TEST(ExptReport, JudgesGoldenAndSurfacesFailures)
{
    const std::string scratch = makeScratch();
    SuiteSpec spec;
    std::string err;
    ASSERT_TRUE(SuiteSpec::parse(
        Json::parse(R"({
          "suite": "s",
          "runs": [
            {"name": "good", "bench": "b1",
             "golden": {"m": {"value": 10, "rel_tol": 0.2}}},
            {"name": "drifted", "bench": "b2",
             "golden": {"m": {"value": 10, "rel_tol": 0.05}}},
            {"name": "absent", "bench": "b3", "golden": {"nope": 1}},
            {"name": "crashed", "bench": "b4"}
          ]})"),
        spec, err))
        << err;

    std::vector<std::string> outputs;
    for (const char *name : {"good", "drifted", "absent", "crashed"})
        outputs.push_back(scratch + "/" + name + ".json");
    writeFile(outputs[0], R"({"metrics": {"m": 11}})");   // within 20%
    writeFile(outputs[1], R"({"metrics": {"m": 11}})");   // outside 5%
    writeFile(outputs[2], R"({"metrics": {"m": 11}})");   // key missing

    std::vector<RunOutcome> outcomes(4);
    for (std::size_t i = 0; i < 4; ++i) {
        outcomes[i].name = spec.runs[i].name;
        outcomes[i].status = RunStatus::Ok;
        outcomes[i].attempts = 1;
    }
    outcomes[3].status = RunStatus::Crashed;
    outcomes[3].exitCode = 11;

    SuiteReport rep = buildReport(spec, outcomes, outputs, 4, 1.0, "rev");
    ASSERT_EQ(rep.runs.size(), 4u);
    EXPECT_TRUE(rep.runs[0].pass);
    EXPECT_FALSE(rep.runs[1].pass);
    EXPECT_FALSE(rep.runs[2].pass);
    EXPECT_TRUE(rep.runs[2].checks[0].missing);
    EXPECT_FALSE(rep.runs[3].pass);
    EXPECT_NE(rep.runs[3].error.find("crashed"), std::string::npos);
    EXPECT_EQ(rep.numPassed(), 1u);
    EXPECT_FALSE(rep.pass()); // => takobench exits nonzero

    // The report document carries the verdicts.
    Json doc = rep.toJson();
    EXPECT_EQ(doc["schema"].asString(), "takobench-v1");
    EXPECT_EQ(doc["failed"].asNumber(), 3.0);
    EXPECT_EQ(doc["runs"].asArray().size(), 4u);
    EXPECT_EQ(doc["runs"].asArray()[1]["golden"]
                  .asArray()[0]["pass"]
                  .asBool(),
              false);
}

TEST(ExptReport, ExtrasRecordedButNeverGate)
{
    const std::string scratch = makeScratch();
    SuiteSpec spec;
    std::string err;
    ASSERT_TRUE(SuiteSpec::parse(
        Json::parse(R"({
          "suite": "s",
          "runs": [{"name": "r", "bench": "b",
                    "golden": {"m": 10},
                    "extras": ["prof.cb.count", "prof.absent"]}]})"),
        spec, err))
        << err;

    const std::string out = scratch + "/r.json";
    writeFile(out, R"({"metrics": {"m": 10, "prof.cb.count": 7}})");
    std::vector<RunOutcome> outcomes(1);
    outcomes[0].name = "r";
    outcomes[0].status = RunStatus::Ok;
    outcomes[0].attempts = 1;

    SuiteReport rep = buildReport(spec, outcomes, {out}, 1, 1.0, "rev");
    ASSERT_EQ(rep.runs.size(), 1u);
    // Missing extra does not fail the run.
    EXPECT_TRUE(rep.runs[0].pass);
    EXPECT_EQ(rep.runs[0].extras.at("prof.cb.count"), 7.0);
    ASSERT_EQ(rep.runs[0].extrasMissing.size(), 1u);
    EXPECT_EQ(rep.runs[0].extrasMissing[0], "prof.absent");

    Json doc = rep.toJson();
    const Json &run = doc["runs"].asArray()[0];
    EXPECT_EQ(run["extras"]["prof.cb.count"].asNumber(), 7.0);
    EXPECT_EQ(run["extras_missing"].asArray()[0].asString(),
              "prof.absent");
}

// -------------------------------------------------------------- Runner

TEST(ExptRunner, RunsChildrenAndCapturesOutput)
{
    const std::string scratch = makeScratch();
    std::vector<RunCommand> cmds = {
        shCommand("ok", "echo '{\"metrics\": {\"x\": 1}}' > " + scratch +
                            "/ok.json; echo hello",
                  scratch),
        shCommand("fails", "exit 3", scratch),
    };
    auto outcomes = runAll(cmds, 2);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[1].status, RunStatus::Failed);
    EXPECT_EQ(outcomes[1].exitCode, 3);

    // stdout went to the log file.
    std::ifstream log(scratch + "/ok.log");
    std::string line;
    std::getline(log, line);
    EXPECT_EQ(line, "hello");
}

TEST(ExptRunner, UnknownBinaryIsMissingNotFatal)
{
    const std::string scratch = makeScratch();
    RunCommand cmd;
    cmd.name = "ghost";
    cmd.argv = {"/no/such/bench_binary"};
    cmd.timeoutSec = 5;
    auto outcomes = runAll({cmd}, 1);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, RunStatus::MissingBinary);
}

TEST(ExptRunner, CrashIsReportedWithSignal)
{
    const std::string scratch = makeScratch();
    auto outcomes =
        runAll({shCommand("sig", "kill -SEGV $$", scratch)}, 1);
    EXPECT_EQ(outcomes[0].status, RunStatus::Crashed);
    EXPECT_EQ(outcomes[0].exitCode, SIGSEGV);
    EXPECT_EQ(outcomes[0].attempts, 1u); // retries=0 in shCommand
}

TEST(ExptRunner, TimeoutFiresAndKills)
{
    const std::string scratch = makeScratch();
    auto cmd = shCommand("slow", "sleep 30", scratch, /*timeout=*/0.3);
    const auto t0 = std::chrono::steady_clock::now();
    auto outcomes = runAll({cmd}, 1);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_EQ(outcomes[0].status, RunStatus::TimedOut);
    EXPECT_LT(wall, 10.0); // killed, not waited out
}

TEST(ExptRunner, RetriesCrashThenSucceeds)
{
    const std::string scratch = makeScratch();
    // First attempt: no marker -> create it and die. Second: succeed.
    const std::string script =
        "if [ -e " + scratch + "/marker ]; then echo '{\"metrics\":{}}' "
        "> " + scratch + "/retry.json; else touch " + scratch +
        "/marker; kill -KILL $$; fi";
    auto cmd = shCommand("retry", script, scratch, 30, /*retries=*/2);
    auto outcomes = runAll({cmd}, 1);
    EXPECT_EQ(outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);
}

TEST(ExptRunner, CleanFailureIsNotRetried)
{
    const std::string scratch = makeScratch();
    auto cmd = shCommand("nope", "exit 1", scratch, 30, /*retries=*/3);
    auto outcomes = runAll({cmd}, 1);
    EXPECT_EQ(outcomes[0].status, RunStatus::Failed);
    EXPECT_EQ(outcomes[0].attempts, 1u);
}

/** Clears the spawn-failure seam even when an assertion bails out. */
struct SpawnHookGuard
{
    ~SpawnHookGuard() { setSpawnFailureHook({}); }
};

TEST(ExptRunner, SpawnFailureIsRetriedThenSucceeds)
{
    const std::string scratch = makeScratch();
    SpawnHookGuard guard;
    // First fork "fails" with EAGAIN; the retry path must pick the run
    // back up instead of reporting a code-0 crash.
    setSpawnFailureHook([](const RunCommand &, unsigned attempt) {
        return attempt == 1 ? EAGAIN : 0;
    });
    auto cmd = shCommand("spawnretry", "exit 0", scratch, 30,
                         /*retries=*/2);
    auto outcomes = runAll({cmd}, 1);
    EXPECT_EQ(outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);
}

TEST(ExptRunner, SpawnFailureExhaustsRetriesWithErrno)
{
    const std::string scratch = makeScratch();
    SpawnHookGuard guard;
    setSpawnFailureHook(
        [](const RunCommand &, unsigned) { return EAGAIN; });
    auto cmd = shCommand("spawnfail", "exit 0", scratch, 30,
                         /*retries=*/2);
    auto outcomes = runAll({cmd}, 1);
    EXPECT_EQ(outcomes[0].status, RunStatus::Crashed);
    EXPECT_EQ(outcomes[0].exitCode, EAGAIN); // errno, not 0
    EXPECT_EQ(outcomes[0].attempts, 3u);     // 1 + retries
}

TEST(ExptRunner, StrayChildIsReapedWithoutDisturbingRuns)
{
    const std::string scratch = makeScratch();
    // A child the runner never spawned: its pid is not in the run
    // table, so the pool's waitpid(-1) sees it as a stray.
    const pid_t stray = ::fork();
    if (stray == 0)
        ::_exit(0);
    ASSERT_GT(stray, 0);
    // Keep the real run alive long enough that the stray is reaped
    // mid-loop rather than after the pool drains.
    auto cmd = shCommand("real", "sleep 0.3; exit 0", scratch);
    auto outcomes = runAll({cmd}, 1);
    EXPECT_EQ(outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    // The runner consumed (and logged) the stray: it is gone.
    int wstatus = 0;
    EXPECT_EQ(::waitpid(stray, &wstatus, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(ExptRunner, WallTimeAccumulatesAcrossAttempts)
{
    const std::string scratch = makeScratch();
    // First attempt burns the full 0.4s timeout; the retry finishes in
    // milliseconds. Total wall must cover both, not just the final try.
    const std::string script =
        "if [ -e " + scratch + "/marker ]; then exit 0; "
        "else touch " + scratch + "/marker; sleep 30; fi";
    auto cmd = shCommand("wall", script, scratch, /*timeout=*/0.4,
                         /*retries=*/1);
    auto outcomes = runAll({cmd}, 1);
    EXPECT_EQ(outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_GE(outcomes[0].wallSec, 0.4);
}

TEST(ExptRunner, ParallelismPreservesOrderAndResults)
{
    const std::string scratch = makeScratch();
    // 8 children writing distinct metrics; outcomes and aggregated
    // metrics must be identical (and in submission order) at any -j.
    auto make = [&](const std::string &suffix) {
        std::vector<RunCommand> cmds;
        for (int i = 0; i < 8; ++i) {
            const std::string name = 'r' + std::to_string(i) + suffix;
            cmds.push_back(shCommand(
                name,
                "echo '{\"metrics\": {\"v\": " + std::to_string(i * 11) +
                    "}}' > " + scratch + "/" + name + ".json",
                scratch));
        }
        return cmds;
    };

    auto seq_cmds = make("_seq");
    auto par_cmds = make("_par");
    auto seq = runAll(seq_cmds, 1);
    auto par = runAll(par_cmds, 8);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].status, par[i].status);
        std::string e1, e2;
        Json s = Json::parseFile(seq_cmds[i].outputJson, &e1);
        Json p = Json::parseFile(par_cmds[i].outputJson, &e2);
        ASSERT_TRUE(e1.empty() && e2.empty()) << e1 << e2;
        EXPECT_EQ(s["metrics"]["v"].asNumber(),
                  p["metrics"]["v"].asNumber());
    }
}

// -------------------------------------- end-to-end with real binaries

/** build/tests/<this binary> -> build/tools/<name>, if built. */
std::string
siblingTool(const std::string &name)
{
    char buf[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    std::string dir(buf);
    const auto slash = dir.rfind('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    const std::string candidate = dir + "/../tools/" + name;
    return ::access(candidate.c_str(), X_OK) == 0 ? candidate : "";
}

TEST(ExptEndToEnd, SameSpecSameSeedIdenticalMetricsAcrossJobLevels)
{
    const std::string takosim = siblingTool("takosim");
    if (takosim.empty())
        GTEST_SKIP() << "takosim binary not found next to tests";

    const std::string scratch = makeScratch();
    auto makeCmds = [&](const std::string &suffix) {
        std::vector<RunCommand> cmds;
        for (const char *variant : {"baseline", "tako"}) {
            RunCommand cmd;
            cmd.name = std::string("decompress-") + variant + suffix;
            cmd.outputJson = scratch + "/" + cmd.name + ".json";
            cmd.logPath = scratch + "/" + cmd.name + ".log";
            cmd.timeoutSec = 120;
            cmd.argv = {takosim, "--workload=decompress",
                        std::string("--variant=") + variant, "--seed=3",
                        "--stats-json=" + cmd.outputJson};
            cmds.push_back(cmd);
        }
        return cmds;
    };

    auto j1_cmds = makeCmds("_j1");
    auto j8_cmds = makeCmds("_j8");
    auto j1 = runAll(j1_cmds, 1);
    auto j8 = runAll(j8_cmds, 8);
    for (std::size_t i = 0; i < j1.size(); ++i) {
        ASSERT_EQ(j1[i].status, RunStatus::Ok)
            << "run " << j1[i].name << " failed";
        ASSERT_EQ(j8[i].status, RunStatus::Ok)
            << "run " << j8[i].name << " failed";
        std::string e1, e2;
        Json a = Json::parseFile(j1_cmds[i].outputJson, &e1);
        Json b = Json::parseFile(j8_cmds[i].outputJson, &e2);
        ASSERT_TRUE(e1.empty() && e2.empty()) << e1 << e2;
        // Byte-identical metric extraction: parallel fan-out must not
        // perturb the (single-process, seeded) simulations. host.*
        // gauges are wall-clock-derived and exempt by contract.
        auto ma = extractMetrics(a);
        auto mb = extractMetrics(b);
        auto dropHost = [](std::map<std::string, double> &m) {
            for (auto it = m.begin(); it != m.end();) {
                if (it->first.rfind("host.", 0) == 0)
                    it = m.erase(it);
                else
                    ++it;
            }
        };
        dropHost(ma);
        dropHost(mb);
        EXPECT_EQ(ma, mb);
        EXPECT_FALSE(ma.empty());
    }
}

TEST(TakosimCli, MalformedArgvExitsWithoutSignal)
{
    const std::string takosim = siblingTool("takosim");
    if (takosim.empty())
        GTEST_SKIP() << "takosim binary not found next to tests";

    // Usage errors exit 2 before any simulation runs; a cache geometry
    // the model cannot build is a configuration error (fatal, exit 1).
    // Neither may end in a signal (panic/abort).
    struct Case
    {
        const char *arg;
        int code;
    };
    const std::vector<Case> cases = {
        {"--cores=0", 2},
        {"--shards=0", 2},
        {"--replicate=0", 2},
        {"--cores=abc", 2},
        {"--cores=", 2},
        {"--cores=4x", 2},
        {"--cores=-4", 2},
        {"--seed=1.5", 2},
        {"--vertices=99999999999999999999999", 2},
        {"--trace-mask=cache", 2},
        {"--trace-mask=mem,bogus", 2},
        {"--trace-mask=", 2},
        {"--l2=100", 1},
        {"--l1=3072", 1},
    };
    const std::string scratch = makeScratch();
    std::vector<RunCommand> cmds;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        RunCommand cmd;
        cmd.name = "argv" + std::to_string(i);
        cmd.outputJson = scratch + "/" + cmd.name + ".json";
        cmd.logPath = scratch + "/" + cmd.name + ".log";
        cmd.timeoutSec = 60;
        cmd.retries = 0;
        cmd.argv = {takosim, "--workload=decompress", "--variant=tako",
                    cases[i].arg};
        cmds.push_back(cmd);
    }
    const std::vector<RunOutcome> out = runAll(cmds, 4);
    ASSERT_EQ(out.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(out[i].status, RunStatus::Failed)
            << cases[i].arg << ": " << runStatusName(out[i].status);
        EXPECT_EQ(out[i].exitCode, cases[i].code) << cases[i].arg;
    }
}

/** Run @p tool once per argv case (each appended to @p base) and
 *  expect every one to exit with @p code, never a signal. */
void
expectEachExits(const std::string &tool, const std::vector<std::string> &base,
                const std::vector<std::string> &cases, int code)
{
    const std::string scratch = makeScratch();
    std::vector<RunCommand> cmds;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        RunCommand cmd;
        cmd.name = "argv" + std::to_string(i);
        cmd.logPath = scratch + "/" + cmd.name + ".log";
        cmd.timeoutSec = 60;
        cmd.argv = {tool};
        cmd.argv.insert(cmd.argv.end(), base.begin(), base.end());
        cmd.argv.push_back(cases[i]);
        cmds.push_back(cmd);
    }
    const std::vector<RunOutcome> out = runAll(cmds, 4);
    ASSERT_EQ(out.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(out[i].status, RunStatus::Failed) << cases[i];
        EXPECT_EQ(out[i].exitCode, code) << cases[i];
    }
}

TEST(TakotracegenCli, MalformedNumbersAreUsageErrors)
{
    const std::string tool = siblingTool("takotracegen");
    if (tool.empty())
        GTEST_SKIP() << "takotracegen binary not found next to tests";
    // Each value is only partly a number, out of range, or not a
    // number at all; every one fails while parsing argv.
    const std::string out = makeScratch() + "/argv.takotrace";
    expectEachExits(tool, {"--kind=kv", "--records=64", "--out=" + out},
                    {"--records=1e5", "--tenants=4294967297", "--seed=x",
                     "--theta=0.5x", "--records=", "--store-frac=",
                     "--leaf-frac=nan", "--chunk-records=-1",
                     "--limit=9x"},
                    2);
}

TEST(TakobenchCli, MalformedNumbersAreUsageErrors)
{
    const std::string tool = siblingTool("takobench");
    if (tool.empty())
        GTEST_SKIP() << "takobench binary not found next to tests";
    // A valid spec under --list: a number that parsed would list the
    // suite and exit 0, and none of these cases can launch a run.
    const std::string spec = makeScratch() + "/spec.json";
    writeFile(spec,
              R"({"suite": "s", "runs": [{"name": "r", "bench": "b"}]})");
    expectEachExits(tool, {spec, "--list"},
                    {"-jabc", "-j4x", "-j-1", "--progress=abc",
                     "--progress=-5"},
                    2);
}

TEST(TakosimCli, BadOutputPathExitsOneBeforeTheRun)
{
    const std::string takosim = siblingTool("takosim");
    if (takosim.empty())
        GTEST_SKIP() << "takosim binary not found next to tests";
    // Every output file opens before the simulation: a path inside a
    // missing directory exits 1 without simulating anything.
    const std::string scratch = makeScratch();
    std::vector<RunCommand> cmds;
    for (const char *flag : {"--stats-json", "--profile", "--folded",
                             "--trace-out", "--trace-record"}) {
        RunCommand cmd;
        cmd.name = flag + 2;
        cmd.logPath = scratch + "/" + cmd.name + ".log";
        cmd.timeoutSec = 60;
        cmd.argv = {takosim, "--workload=decompress", "--variant=tako",
                    std::string(flag) + "=" + scratch + "/missing/out"};
        cmds.push_back(cmd);
    }
    const std::vector<RunOutcome> out = runAll(cmds, 4);
    ASSERT_EQ(out.size(), cmds.size());
    for (std::size_t i = 0; i < cmds.size(); ++i) {
        EXPECT_EQ(out[i].status, RunStatus::Failed) << cmds[i].name;
        EXPECT_EQ(out[i].exitCode, 1) << cmds[i].name;
        std::ifstream log(cmds[i].logPath);
        const std::string text(std::istreambuf_iterator<char>(log), {});
        EXPECT_NE(text.find("cannot open"), std::string::npos)
            << cmds[i].name << ": " << text;
        EXPECT_EQ(text.find("cycles"), std::string::npos)
            << cmds[i].name << " ran: " << text;
    }
}

TEST(TakosimCli, TraceRecordWorksOnEveryWorkload)
{
    const std::string takosim = siblingTool("takosim");
    if (takosim.empty())
        GTEST_SKIP() << "takosim binary not found next to tests";
    // --trace-record records any workload's demand stream, not only a
    // trace replay's, into the same bytes at every shard count.
    const std::string scratch = makeScratch();
    std::vector<RunCommand> cmds;
    for (const char *shards : {"1", "4"}) {
        RunCommand cmd;
        cmd.name = std::string("phi_s") + shards;
        cmd.logPath = scratch + "/" + cmd.name + ".log";
        cmd.timeoutSec = 120;
        cmd.argv = {takosim,
                    "--workload=phi",
                    "--variant=tako",
                    "--vertices=2048",
                    std::string("--shards=") + shards,
                    "--trace-record=" + scratch + "/" + cmd.name +
                        ".takotrace"};
        cmds.push_back(cmd);
    }
    const std::vector<RunOutcome> out = runAll(cmds, 2);
    ASSERT_EQ(out.size(), 2u);
    for (const RunOutcome &o : out)
        ASSERT_EQ(o.status, RunStatus::Ok)
            << o.name << ": exit " << o.exitCode;

    auto bytes = [&](const std::string &name) {
        std::ifstream in(scratch + "/" + name + ".takotrace",
                         std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    EXPECT_TRUE(bytes("phi_s1") == bytes("phi_s4"));
    tako::trace::TraceReader reader;
    ASSERT_TRUE(reader.open(scratch + "/phi_s1.takotrace"))
        << reader.error();
    EXPECT_TRUE(reader.hasTimestamps());
    EXPECT_GT(reader.recordCount(), 0u);
}

TEST(TakosimCli, StampsBuildType)
{
    const std::string takosim = siblingTool("takosim");
    if (takosim.empty())
        GTEST_SKIP() << "takosim binary not found next to tests";

    // perf tooling keys trust on this stamp: `--version` prints
    // "takosim <rev> <build type>" (the rev stays the second token) and
    // --stats-json carries the same build type.
    const std::string scratch = makeScratch();
    RunCommand version;
    version.name = "version";
    version.logPath = scratch + "/version.log";
    version.argv = {takosim, "--version"};
    RunCommand stats;
    stats.name = "stats";
    stats.outputJson = scratch + "/stats.json";
    stats.logPath = scratch + "/stats.log";
    stats.argv = {takosim, "--workload=decompress", "--variant=tako",
                  "--cores=1", "--stats-json=" + stats.outputJson};
    const std::vector<RunOutcome> out = runAll({version, stats}, 2);
    ASSERT_EQ(out.size(), 2u);
    ASSERT_EQ(out[0].status, RunStatus::Ok);
    ASSERT_EQ(out[1].status, RunStatus::Ok);

    std::ifstream log(version.logPath);
    std::string tool, rev, buildType, extra;
    log >> tool >> rev >> buildType;
    EXPECT_EQ(tool, "takosim");
    EXPECT_FALSE(rev.empty());
    EXPECT_EQ(buildType, TAKO_EXPECTED_BUILD_TYPE);
    EXPECT_FALSE(log >> extra) << "unexpected token " << extra;

    std::string err;
    const Json doc = Json::parseFile(stats.outputJson, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(doc["build_type"].asString(), TAKO_EXPECTED_BUILD_TYPE);
    EXPECT_EQ(doc["git_rev"].asString(), rev);

    // The run also stamps its own peak RSS: a spawning harness's rusage
    // would fold in the harness's memory.
    const Json &counters = doc["counters"];
    ASSERT_TRUE(counters.contains("host.peak_rss_mb"));
    EXPECT_GT(counters["host.peak_rss_mb"]["value"].asNumber(), 0.0);
}

TEST(TakosimCli, ReplicateObserversWatchReplicaZero)
{
    const std::string takosim = siblingTool("takosim");
    if (takosim.empty())
        GTEST_SKIP() << "takosim binary not found next to tests";

    // Under --replicate the observers watch replica 0, the reported
    // run: its profile and takomon series are the bytes a plain run at
    // the same seed writes, while replica 1 runs beside it on a second
    // lane without them.
    const std::string scratch = makeScratch();
    auto observed = [&](const std::string &name,
                        std::vector<std::string> extra) {
        RunCommand cmd;
        cmd.name = name;
        cmd.logPath = scratch + "/" + name + ".log";
        cmd.timeoutSec = 120;
        cmd.argv = {takosim,
                    "--workload=decompress",
                    "--variant=tako",
                    "--seed=2",
                    "--profile=" + scratch + "/" + name + ".prof.json",
                    "--mon-every=1000",
                    "--mon-out=" + scratch + "/" + name + ".takomon"};
        cmd.argv.insert(cmd.argv.end(), extra.begin(), extra.end());
        return cmd;
    };
    const std::vector<RunOutcome> out =
        runAll({observed("plain", {"--shards=1"}),
                observed("ensemble", {"--replicate=2", "--shards=2"})},
               2);
    ASSERT_EQ(out.size(), 2u);
    ASSERT_EQ(out[0].status, RunStatus::Ok);
    ASSERT_EQ(out[1].status, RunStatus::Ok) << "exit " << out[1].exitCode;

    auto bytes = [&](const std::string &file) {
        std::ifstream in(scratch + "/" + file, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    for (const char *ext : {".prof.json", ".takomon"}) {
        const std::string plain = bytes(std::string("plain") + ext);
        EXPECT_FALSE(plain.empty()) << ext;
        EXPECT_TRUE(plain == bytes(std::string("ensemble") + ext)) << ext;
    }
}

} // namespace
