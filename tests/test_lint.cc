/**
 * @file
 * takolint unit tests: lexer behavior, suppression parsing, the rule
 * engine against inline snippets, and the golden fixtures under
 * tests/lint_fixtures/. Fixture files annotate every seeded violation
 * with `// takolint-expect: RULE` on the same line; the tests assert
 * the (rule, line) sets match exactly, so a takolint that goes blind
 * (or noisy) fails here before it fails in CI.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "lint.hh"

using takolint::Config;
using takolint::Report;
using takolint::Tok;

namespace
{

/** Lint one in-memory snippet as if it were model code. */
Report
lintSnippet(const std::string &src, Config cfg = {})
{
    cfg.assumeModelCode = true;
    std::vector<takolint::SourceFile> files{takolint::lex("snippet.cc",
                                                          src)};
    return takolint::lint(files, cfg);
}

std::set<std::string>
activeRules(const Report &r)
{
    std::set<std::string> out;
    for (const auto &f : r.findings)
        if (!f.suppressed)
            out.insert(f.rule);
    return out;
}

/** (rule, line) pairs promised by `takolint-expect:` fixture markers. */
std::set<std::pair<std::string, int>>
expectedMarks(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::set<std::pair<std::string, int>> out;
    std::string lineText;
    int line = 0;
    const std::string tag = "takolint-expect:";
    while (std::getline(in, lineText)) {
        ++line;
        auto pos = lineText.find(tag);
        if (pos == std::string::npos)
            continue;
        std::istringstream ss(lineText.substr(pos + tag.size()));
        std::string rule;
        while (ss >> rule)
            out.emplace(rule, line);
    }
    return out;
}

} // namespace

TEST(Lexer, StripsCommentsAndPreprocFromSignificantStream)
{
    auto sf = takolint::lex("x.cc",
                            "#include <unordered_map>\n"
                            "// unordered_map in a comment\n"
                            "int x; /* unordered_map */\n");
    for (int idx : sf.sig) {
        const auto &t = sf.tokens[idx];
        EXPECT_NE(t.text, "unordered_map");
        EXPECT_TRUE(t.kind != Tok::Comment && t.kind != Tok::Preproc);
    }
}

TEST(Lexer, KeepsMultiCharOperatorsWhole)
{
    auto sf = takolint::lex("x.cc", "a->b; c::d; e >>= 2;");
    std::set<std::string> ops;
    for (const auto &t : sf.tokens)
        if (t.kind == Tok::Punct)
            ops.insert(t.text);
    EXPECT_TRUE(ops.count("->"));
    EXPECT_TRUE(ops.count("::"));
    EXPECT_TRUE(ops.count(">>="));
}

TEST(Lexer, StringsAndRawStringsAreOpaque)
{
    auto sf = takolint::lex(
        "x.cc", "const char *s = \"rand() getenv\";\n"
                "const char *r = R\"(std::unordered_map)\";\n");
    for (int idx : sf.sig) {
        const auto &t = sf.tokens[idx];
        if (t.kind == Tok::Ident) {
            EXPECT_NE(t.text, "rand");
            EXPECT_NE(t.text, "getenv");
        }
    }
}

TEST(Lexer, DigitSeparatorsStayOneNumberToken)
{
    auto sf = takolint::lex("x.cc", "long n = 1'000'000;");
    int numbers = 0;
    for (const auto &t : sf.tokens) {
        if (t.kind == Tok::Number) {
            ++numbers;
            EXPECT_EQ(t.text, "1'000'000");
        }
    }
    EXPECT_EQ(numbers, 1);
}

TEST(Lexer, PrefixedRawStringsAreOpaque)
{
    auto sf = takolint::lex("x.cc",
                            "auto a = u8R\"(rand() getenv)\";\n"
                            "auto b = LR\"x(unordered_map)x\";\n"
                            "auto c = uR\"(static int bad;)\";\n");
    for (int idx : sf.sig) {
        const auto &t = sf.tokens[idx];
        if (t.kind == Tok::Ident) {
            EXPECT_NE(t.text, "rand");
            EXPECT_NE(t.text, "unordered_map");
            EXPECT_NE(t.text, "static");
            // The prefix must not split off as its own identifier.
            EXPECT_NE(t.text, "u8R");
            EXPECT_NE(t.text, "LR");
            EXPECT_NE(t.text, "uR");
        }
    }
}

TEST(Lexer, SpaceshipStaysWholeAndCoAwaitStaysAnIdent)
{
    auto sf = takolint::lex("x.cc", "bool b = (x<=>y) < 0; co_await*p;");
    bool sawSpaceship = false, sawCoAwait = false;
    for (std::size_t i = 0; i < sf.tokens.size(); ++i) {
        const auto &t = sf.tokens[i];
        if (t.kind == Tok::Punct && t.text == "<=>")
            sawSpaceship = true;
        if (t.kind == Tok::Ident && t.text == "co_await")
            sawCoAwait = true;
        // `<=>` must never decay into `<=` `>` (which would unbalance
        // template-argument matching).
        if (t.text == "<=") {
            EXPECT_NE(sf.tokens[i + 1].text, ">");
        }
    }
    EXPECT_TRUE(sawSpaceship);
    EXPECT_TRUE(sawCoAwait);
}

TEST(Lexer, ParsesSuppressionsWithReasons)
{
    auto sf = takolint::lex("x.cc",
                            "// takolint: ok(D1, sorted before use)\n"
                            "int x;\n"
                            "/* takolint: ok(L2) */\n");
    ASSERT_EQ(sf.suppressions.size(), 2u);
    EXPECT_EQ(sf.suppressions[0].rule, "D1");
    EXPECT_EQ(sf.suppressions[0].reason, "sorted before use");
    EXPECT_EQ(sf.suppressions[0].line, 1);
    EXPECT_EQ(sf.suppressions[1].rule, "L2");
    EXPECT_EQ(sf.suppressions[1].reason, "");
}

TEST(Rules, D2FlagsHostEntropy)
{
    auto r = lintSnippet("int f() { return rand(); }\n");
    EXPECT_EQ(activeRules(r), std::set<std::string>{"D2"});
}

TEST(Rules, D2IgnoresMemberFunctionsNamedLikeHostCalls)
{
    // `eq.time()` is a method call, not ::time(); only the bare call is
    // host entropy.
    auto r = lintSnippet("int f(Clock &eq) { return eq.time(); }\n");
    EXPECT_TRUE(activeRules(r).empty());
}

TEST(Rules, L1FlagsRefCaptureOnlyForDeferredCalls)
{
    auto flagged = lintSnippet(
        "void f(EventQueue &eq) { int n = 0;\n"
        "  eq.schedule(1, [&n]() { ++n; }); }\n");
    EXPECT_EQ(activeRules(flagged), std::set<std::string>{"L1"});

    // Immediate algorithms may capture by reference freely.
    auto clean = lintSnippet(
        "void f(std::vector<int> &v) { int n = 0;\n"
        "  std::for_each(v.begin(), v.end(), [&n](int) { ++n; }); }\n");
    EXPECT_FALSE(activeRules(clean).count("L1"));
}

TEST(Rules, SuppressionOnSameLineAndLineAboveBothApply)
{
    auto sameLine = lintSnippet(
        "int f() { return rand(); } // takolint: ok(D2, test)\n");
    ASSERT_EQ(sameLine.findings.size(), 1u);
    EXPECT_TRUE(sameLine.findings[0].suppressed);
    EXPECT_EQ(sameLine.findings[0].suppressReason, "test");
    EXPECT_EQ(sameLine.activeCount(), 0);

    auto lineAbove = lintSnippet("// takolint: ok(D2, test)\n"
                                 "int f() { return rand(); }\n");
    ASSERT_EQ(lineAbove.findings.size(), 1u);
    EXPECT_TRUE(lineAbove.findings[0].suppressed);
}

TEST(Rules, NoSuppressModeIgnoresSuppressions)
{
    Config cfg;
    cfg.honorSuppressions = false;
    auto r = lintSnippet(
        "int f() { return rand(); } // takolint: ok(D2, test)\n", cfg);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_FALSE(r.findings[0].suppressed);
    EXPECT_EQ(r.activeCount(), 1);
}

TEST(Rules, UnusedSuppressionsAreReported)
{
    auto r = lintSnippet("// takolint: ok(D1, nothing here needs it)\n"
                         "int x;\n");
    ASSERT_EQ(r.unusedSuppressions.size(), 1u);
    EXPECT_EQ(r.unusedSuppressions[0].rule, "D1");
    EXPECT_EQ(r.unusedSuppressions[0].line, 1);
}

TEST(Rules, RuleFilterRestrictsChecking)
{
    Config cfg;
    cfg.rules.insert("L1");
    auto r = lintSnippet("int f() { return rand(); }\n", cfg);
    EXPECT_TRUE(r.findings.empty());
}

TEST(FlowRules, X2FlagsForeignQueueScheduleViaTrackedBinding)
{
    auto r = lintSnippet(
        "void f(Domains &dom, Tick when) {\n"
        "  EventQueue &fq = *dom.queues()[3];\n"
        "  fq.schedule(when, []() {});\n"
        "}\n");
    EXPECT_EQ(activeRules(r), std::set<std::string>{"X2"});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].line, 3);
    // The trace names the foreign-queue source.
    ASSERT_GE(r.findings[0].trace.size(), 2u);
    EXPECT_EQ(r.findings[0].trace[0].line, 2);
}

TEST(FlowRules, X2IgnoresHomeQueueAndRoutedPosts)
{
    auto r = lintSnippet(
        "void f(Domains &dom, Tick when) {\n"
        "  ctxQueue().schedule(when, []() {});\n"
        "  dom.post(3, when, []() {});\n"
        "}\n");
    EXPECT_FALSE(activeRules(r).count("X2"));
}

TEST(FlowRules, H1TraceNamesTheSuspensionPoint)
{
    auto r = lintSnippet(
        "Task<> f(Domains &dom, Bank **banks, int tile, int bank) {\n"
        "  Bank &b = *banks[bank];\n"
        "  co_await dom.hopTo(bank);\n"
        "  b.touch();\n"
        "}\n");
    EXPECT_EQ(activeRules(r), std::set<std::string>{"H1"});
    ASSERT_EQ(r.findings.size(), 1u);
    const auto &f = r.findings[0];
    EXPECT_EQ(f.line, 4);
    ASSERT_EQ(f.trace.size(), 3u);
    EXPECT_EQ(f.trace[0].line, 2); // binding
    EXPECT_EQ(f.trace[1].line, 3); // suspension point
    EXPECT_NE(f.trace[1].note.find("hopTo"), std::string::npos);
    EXPECT_EQ(f.trace[2].line, 4); // stale use
}

TEST(FlowRules, H1KillsTaintOnRebindAndLoopRebind)
{
    auto clean = lintSnippet(
        "Task<> f(Domains &dom, Bank **banks, int bank) {\n"
        "  co_await dom.hopTo(bank);\n"
        "  Bank &b = *banks[bank];\n"
        "  b.touch();\n"
        "}\n");
    EXPECT_TRUE(activeRules(clean).empty());

    // A reference re-bound at the top of each loop iteration is clean
    // even though the body ends in a hop: the back-edge must see the
    // kill.
    auto loop = lintSnippet(
        "Task<> f(Domains &dom, Bank **banks, int n) {\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    Bank &b = *banks[i];\n"
        "    b.touch();\n"
        "    co_await dom.hopTo(i);\n"
        "  }\n"
        "}\n");
    EXPECT_TRUE(activeRules(loop).empty());
}

TEST(FlowRules, C1FlagsAnnotatedObjectCapturedIntoCrossDomainPost)
{
    auto r = lintSnippet(
        "// takolint: domain-local\n"
        "struct Sem { void release(); };\n"
        "void f(Domains &dom, Sem &sem, int bank) {\n"
        "  dom.post(bank, 8, [&sem]() { sem.release(); });\n"
        "}\n");
    EXPECT_EQ(activeRules(r), std::set<std::string>{"C1"});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].line, 4);
    EXPECT_FALSE(r.findings[0].trace.empty());
}

TEST(FlowRules, L3FlagsStackAddressEscapingIntoDeferredCallable)
{
    auto r = lintSnippet("void f(Domains &dom, int tile) {\n"
                         "  int n = 0;\n"
                         "  dom.post(tile, 8, [p = &n]() { *p = 1; });\n"
                         "}\n");
    EXPECT_EQ(activeRules(r), std::set<std::string>{"L3"});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].line, 3);
}

TEST(FlowRules, L3IgnoresValueCapturesAndMemberPointers)
{
    auto r = lintSnippet(
        "struct A { long t_;\n"
        "  void f(Domains &dom, int tile) {\n"
        "    int n = 0;\n"
        "    dom.post(tile, 8, [n]() { use(n); });\n"
        "    dom.post(tile, 8, [p = &t_]() { *p = 1; });\n"
        "  }\n"
        "};\n");
    EXPECT_TRUE(activeRules(r).empty());
}

TEST(FlowRules, SuppressionsApplyToFlowFindings)
{
    for (const char *src : {
             // X2 on line 3, suppressed on line 2.
             "void f(EventQueue **queues_, Tick w) {\n"
             "  // takolint: ok(X2, reviewed)\n"
             "  queues_[0]->scheduleKeyed(w, []() {}, 1, 2);\n"
             "}\n",
             // H1 on line 4, suppressed same line.
             "Task<> f(Domains &dom, Bank **banks, int bank) {\n"
             "  Bank &b = *banks[bank];\n"
             "  co_await dom.hopTo(bank);\n"
             "  b.touch(); // takolint: ok(H1, reviewed)\n"
             "}\n",
             // C1 on line 4, suppressed on line 3.
             "// takolint: domain-local\n"
             "struct Sem2 { void release(); };\n"
             "void g(Domains &dom, Sem2 &gate, int bank) {\n"
             "  // takolint: ok(C1, reviewed)\n"
             "  dom.post(bank, 8, [&gate]() { gate.release(); });\n"
             "}\n",
             // L3 on line 3, suppressed same line.
             "void h(Domains &dom, int tile) {\n"
             "  int n = 0;\n"
             "  dom.post(tile, 8, [p = &n]() {}); // takolint: ok(L3, reviewed)\n"
             "}\n",
         }) {
        auto r = lintSnippet(src);
        EXPECT_EQ(r.activeCount(), 0) << src;
        EXPECT_FALSE(r.findings.empty()) << src;
        EXPECT_TRUE(r.unusedSuppressions.empty()) << src;
    }
}

TEST(FlowRules, UnusedSuppressionsReportedForEveryFlowRule)
{
    auto r = lintSnippet("// takolint: ok(X2, nothing here)\n"
                         "// takolint: ok(H1, nothing here)\n"
                         "// takolint: ok(C1, nothing here)\n"
                         "// takolint: ok(L3, nothing here)\n"
                         "int x;\n");
    ASSERT_EQ(r.unusedSuppressions.size(), 4u);
    std::set<std::string> rules;
    for (const auto &u : r.unusedSuppressions)
        rules.insert(u.rule);
    EXPECT_EQ(rules, (std::set<std::string>{"X2", "H1", "C1", "L3"}));
}

TEST(FlowRules, UnusedSuppressionsDedupedPerFileLineRule)
{
    // Two comments on one line carrying the same (rule) suppression:
    // still exactly one unused-suppression report.
    auto r = lintSnippet(
        "/* takolint: ok(D1, a) */ /* takolint: ok(D1, b) */\n"
        "int x;\n");
    ASSERT_EQ(r.unusedSuppressions.size(), 1u);
    EXPECT_EQ(r.unusedSuppressions[0].rule, "D1");
    EXPECT_EQ(r.unusedSuppressions[0].line, 1);
}

TEST(ModelPath, OnlyModelDirectoriesAreChecked)
{
    EXPECT_TRUE(takolint::isModelPath("src/mem/memory_system.cc"));
    EXPECT_TRUE(takolint::isModelPath("/repo/src/sim/event_queue.hh"));
    EXPECT_TRUE(takolint::isModelPath("src/tako/engine.cc"));
    EXPECT_FALSE(takolint::isModelPath("tools/takobench.cc"));
    EXPECT_FALSE(takolint::isModelPath("tests/test_sim.cc"));
}

TEST(ModelPath, PartitionScopeAddsWorkloadsAndSystem)
{
    // Flow rules run over everything that participates in the domain
    // decomposition: model dirs plus src/workloads and src/system.
    EXPECT_TRUE(takolint::isPartitionPath("src/sim/domains.hh"));
    EXPECT_TRUE(takolint::isPartitionPath("src/workloads/common.hh"));
    EXPECT_TRUE(takolint::isPartitionPath("/repo/src/system/system.cc"));
    EXPECT_FALSE(takolint::isPartitionPath("tools/takobench.cc"));
    EXPECT_FALSE(takolint::isPartitionPath("tests/test_sim.cc"));
}

/**
 * Golden fixtures: every `takolint-expect: RULE` marker in bad/ must
 * produce exactly one active finding at that (rule, line), and nothing
 * else may fire. ok/ must be completely clean.
 */
class Fixtures : public ::testing::Test
{
  protected:
    static std::string
    dir(const std::string &leaf)
    {
        return std::string(LINT_FIXTURES_DIR) + "/" + leaf;
    }
};

TEST_F(Fixtures, BadFilesProduceExactlyTheExpectedFindings)
{
    Config cfg;
    cfg.assumeModelCode = true;
    auto report = takolint::lintPaths({dir("bad")}, cfg);
    EXPECT_GT(report.filesScanned, 0);

    std::set<std::pair<std::string, int>> expected;
    for (const auto &path : takolint::collectSources({dir("bad")}))
        for (auto &[rule, line] : expectedMarks(path))
            expected.emplace(rule, line);
    ASSERT_FALSE(expected.empty());

    std::set<std::pair<std::string, int>> got;
    for (const auto &f : report.findings) {
        EXPECT_FALSE(f.suppressed)
            << f.file << ":" << f.line << " unexpectedly suppressed";
        got.emplace(f.rule, f.line);
    }

    for (const auto &e : expected)
        EXPECT_TRUE(got.count(e)) << "missing finding " << e.first
                                  << " at line " << e.second;
    for (const auto &g : got)
        EXPECT_TRUE(expected.count(g))
            << "unexpected finding " << g.first << " at line "
            << g.second;

    // Every rule must be exercised by the bad fixtures.
    EXPECT_EQ(activeRules(report),
              (std::set<std::string>{"D1", "D2", "L1", "L2", "S1",
                                     "X1", "X2", "H1", "C1", "L3"}));
}

TEST_F(Fixtures, SeededHopViolationCarriesAFlowTrace)
{
    // The acceptance case: a by-ref capture used after hopTo must be
    // caught with the right rule and line, and the finding's trace
    // must name the suspension point.
    Config cfg;
    cfg.assumeModelCode = true;
    auto report =
        takolint::lintPaths({dir("bad") + "/h1_use_after_hop.cc"}, cfg);
    int h1 = 0;
    for (const auto &f : report.findings) {
        if (f.rule != "H1")
            continue;
        ++h1;
        ASSERT_EQ(f.trace.size(), 3u) << takolint::format(f);
        EXPECT_NE(f.trace[1].note.find("hopTo"), std::string::npos)
            << "trace must name the suspension point";
        EXPECT_LT(f.trace[0].line, f.trace[1].line);
        EXPECT_LT(f.trace[1].line, f.trace[2].line);
        EXPECT_EQ(f.trace[2].line, f.line);
    }
    EXPECT_EQ(h1, 2); // the plain-reference and the by-ref-capture case
}

TEST_F(Fixtures, OkFilesAreCleanAndSuppressionsAllUsed)
{
    Config cfg;
    cfg.assumeModelCode = true;
    auto report = takolint::lintPaths({dir("ok")}, cfg);
    EXPECT_GT(report.filesScanned, 0);
    for (const auto &f : report.findings)
        EXPECT_TRUE(f.suppressed)
            << takolint::format(f) << " should be clean or suppressed";
    EXPECT_EQ(report.activeCount(), 0);
    for (const auto &u : report.unusedSuppressions)
        ADD_FAILURE() << u.file << ":" << u.line
                      << ": unused suppression for " << u.rule;
    // The ok fixtures must demonstrate real suppressions, not just
    // clean code.
    EXPECT_FALSE(report.findings.empty());
}
