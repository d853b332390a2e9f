/**
 * @file
 * Tests for the observability layer: JSON stats export, the periodic
 * time-series sampler, per-transaction latency breakdowns, the Chrome
 * trace-event sink fed by the record stream, and the event-queue/stats
 * fixes that came with them (runUntil time advance, histogram parameter
 * checking).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>

#include "mon/sink.hh"
#include "sim/tracesink.hh"
#include "system/system.hh"
#include "workloads/common.hh"

using namespace tako;

namespace
{

// -------------------------------------------------------------------
// Minimal recursive-descent JSON parser: validates syntax only. Enough
// to prove dumpJson() / the trace writer emit well-formed documents.
// -------------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // control chars must be escaped
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *lit)
    {
        const std::size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

SystemConfig
smallConfig()
{
    SystemConfig cfg = SystemConfig::forCores(4);
    cfg.mem.l1Size = 1024;
    cfg.mem.l2Size = 4 * 1024;
    cfg.mem.l3BankSize = 16 * 1024;
    cfg.mem.prefetchEnable = false;
    cfg.mem.latBreakdown = true;
    return cfg;
}

} // namespace

// -------------------------------------------------------------------
// EventQueue::runUntil regression: time must advance to the limit even
// when events remain pending beyond it.
// -------------------------------------------------------------------

TEST(EventQueue, RunUntilAdvancesPastPendingEvents)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&]() { ran = true; });
    eq.runUntil(5);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil(10);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilAdvancesWhenEmpty)
{
    EventQueue eq;
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
}

// -------------------------------------------------------------------
// StatsRegistry: histogram parameter checking and JSON export.
// -------------------------------------------------------------------

TEST(Stats, HistogramParamMismatchPanics)
{
    StatsRegistry stats;
    stats.histogram("lat", 16, 8);
    stats.histogram("lat", 16, 8); // same geometry: fine
    EXPECT_DEATH(stats.histogram("lat", 32, 8), "mismatched");
    EXPECT_DEATH(stats.histogram("lat", 16, 4), "mismatched");
}

TEST(Stats, DumpJsonParsesAndCarriesMetadata)
{
    StatsRegistry stats;
    stats.counter("l1.hits", "accesses", "demand hits") += 7;
    stats.counter("plain")++;
    Histogram &h = stats.histogram("lat", 4, 8, "cycles", "latency");
    h.sample(3);
    h.sample(100); // overflow bucket

    std::ostringstream os;
    stats.dumpJson(os);
    const std::string doc = os.str();

    EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    EXPECT_NE(doc.find("\"l1.hits\""), std::string::npos);
    EXPECT_NE(doc.find("\"unit\": \"accesses\""), std::string::npos);
    EXPECT_NE(doc.find("\"desc\": \"latency\""), std::string::npos);
    // No sampler installed: no time-series section.
    EXPECT_EQ(doc.find("\"timeseries\""), std::string::npos);
}

TEST(Stats, DumpJsonEscapesAwkwardNames)
{
    StatsRegistry stats;
    stats.counter("we\"ird\\name\ttab")++;
    std::ostringstream os;
    stats.dumpJson(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// -------------------------------------------------------------------
// Trace-mask parsing: every span category has a name, and only those.
// -------------------------------------------------------------------

TEST(Trace, ParseSpecCoversAllDefinedFlags)
{
    std::uint32_t mask = 0;
    std::string bad;
    ASSERT_TRUE(trace::parseSpanMask("all", mask, bad));
    EXPECT_EQ(mask, trace::kAllSpans);
    ASSERT_TRUE(trace::parseSpanMask("mem", mask, bad));
    EXPECT_EQ(mask, trace::kMemSpans);
    ASSERT_TRUE(trace::parseSpanMask("engine,dram", mask, bad));
    EXPECT_EQ(mask, trace::kEngineSpans | trace::kDramSpans);
    // The single names together reach every defined category bit.
    std::uint32_t named = 0;
    for (const char *spec : {"mem", "engine", "dram"}) {
        ASSERT_TRUE(trace::parseSpanMask(spec, mask, bad)) << spec;
        EXPECT_EQ(mask & named, 0u) << spec;
        named |= mask;
    }
    EXPECT_EQ(named, trace::kAllSpans);
    // Names that emit no spans, and empty tokens, are rejected.
    for (const char *spec : {"cache", "mem,bogus", "", "mem,"}) {
        EXPECT_FALSE(trace::parseSpanMask(spec, mask, bad)) << spec;
    }
    EXPECT_FALSE(trace::parseSpanMask("dram,coherence", mask, bad));
    EXPECT_EQ(bad, "coherence");
}

// -------------------------------------------------------------------
// Sampler: deterministic snapshot count and values.
// -------------------------------------------------------------------

namespace
{

mon::TimeSeriesSink::Options
sampleEvery(Tick interval, std::vector<std::string> patterns = {})
{
    mon::TimeSeriesSink::Options opt;
    opt.sampleEvery = interval;
    opt.patterns = std::move(patterns);
    return opt;
}

} // namespace

TEST(Sampler, SnapshotsAtIntervalBoundaries)
{
    EventQueue eq;
    StatsRegistry stats;
    Counter &c = stats.counter("c");
    mon::TimeSeriesSink sampler({&eq}, stats, sampleEvery(10));
    eq.schedule(7, [&]() { c += 1; });
    eq.schedule(25, [&]() { c += 2; });
    eq.schedule(35, [&]() {});
    eq.run();
    ASSERT_TRUE(sampler.finish());

    const StatsTimeSeries &ts = stats.timeSeries();
    ASSERT_EQ(ts.numSamples(), 3u);
    // A boundary with no event since the previous one repeats its value.
    EXPECT_EQ(ts.samples[1][0], 1.0);
}

TEST(Sampler, RunUntilSamplesIdleTime)
{
    EventQueue eq;
    StatsRegistry stats;
    stats.counter("c");
    mon::TimeSeriesSink sampler({&eq}, stats, sampleEvery(10));
    eq.runUntil(50);
    ASSERT_TRUE(sampler.finish());
    EXPECT_EQ(stats.timeSeries().numSamples(), 5u);
}

TEST(Sampler, PatternSelectsCounters)
{
    EventQueue eq;
    StatsRegistry stats;
    stats.counter("l1.hits");
    stats.counter("l1.misses");
    stats.counter("dram.reads");
    mon::TimeSeriesSink sampler({&eq}, stats, sampleEvery(10, {"l1.*"}));
    ASSERT_EQ(stats.timeSeries().names.size(), 2u);
    EXPECT_EQ(stats.timeSeries().names[0], "l1.hits");
    EXPECT_EQ(stats.timeSeries().names[1], "l1.misses");
}

// -------------------------------------------------------------------
// Latency breakdowns: components account for the whole transaction.
// -------------------------------------------------------------------

TEST(Breakdown, ComponentsSumToEndToEndLatency)
{
    System sys(smallConfig());
    sys.addThread(0, [&](Guest &g) -> Task<> {
        // A spread of lines: L1 hits, L2 misses, L3 misses -> DRAM.
        for (int rep = 0; rep < 2; ++rep) {
            for (Addr a = 0x40000; a < 0x48000; a += 256)
                co_await g.store(a, a);
            for (Addr a = 0x40000; a < 0x48000; a += 256)
                co_await g.load(a);
        }
    });
    sys.run();

    StatsRegistry &st = sys.stats();
    const Histogram &total = st.histogram("mem.breakdown.total");
    const double parts = st.histogram("mem.breakdown.cache").sum() +
                         st.histogram("mem.breakdown.noc").sum() +
                         st.histogram("mem.breakdown.lock_wait").sum() +
                         st.histogram("mem.breakdown.dram").sum() +
                         st.histogram("mem.breakdown.callback_wait").sum();
    ASSERT_GT(total.count(), 0u);
    EXPECT_GT(st.histogram("mem.breakdown.dram").sum(), 0.0);
    // Every co_await on the access path is charged to exactly one
    // component, so the parts must account for the total exactly.
    EXPECT_DOUBLE_EQ(parts, total.sum());
}

namespace
{

class FillMorph : public Morph
{
  public:
    FillMorph()
        : Morph(MorphTraits{.name = "fill",
                            .hasMiss = true,
                            .missKernel = {4, 2}})
    {
    }

    Task<>
    onMiss(EngineCtx &ctx) override
    {
        co_await ctx.compute(4, 2);
        for (unsigned i = 0; i < wordsPerLine; ++i)
            ctx.setLineWord(i, 42 + i);
    }
};

} // namespace

TEST(Breakdown, EngineComponentsRecorded)
{
    System sys(smallConfig());
    FillMorph morph;
    std::uint64_t got = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        got = co_await g.load(b->base);
    });
    sys.run();

    EXPECT_EQ(got, 42u);
    StatsRegistry &st = sys.stats();
    const Histogram &total = st.histogram("engine.breakdown.total");
    ASSERT_GT(total.count(), 0u);
    // dispatch includes the fixed scheduler latency, so it is nonzero
    // whenever a callback ran at all.
    EXPECT_GT(st.histogram("engine.breakdown.dispatch").sum(), 0.0);
    // The miss transaction waited on the callback.
    EXPECT_GT(st.histogram("mem.breakdown.callback_wait").sum(), 0.0);
}

// -------------------------------------------------------------------
// Chrome trace sink.
// -------------------------------------------------------------------

TEST(TraceSink, WriterEmitsValidJson)
{
    std::ostringstream os;
    {
        trace::ChromeTraceWriter w(os);
        w.ensureTrack(0, "memory", 3, "tile3");
        w.completeEvent("mem", "load", 0, 3, 100, 42,
                        "{\"addr\":\"0x1000\"}");
        w.completeEvent("mem", "store", 0, 3, 150, 7);
        EXPECT_EQ(w.eventsWritten(), 4u); // 2 metadata + 2 payload
        w.close();
    }
    const std::string doc = os.str();
    EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    // One event per line between the brackets, so the file can also be
    // consumed line-at-a-time.
    std::istringstream lines(doc);
    std::string line;
    std::getline(lines, line);
    EXPECT_EQ(line, "[");
    unsigned payload = 0;
    while (std::getline(lines, line)) {
        if (line == "]" || line.empty())
            continue;
        std::string obj = line;
        if (!obj.empty() && obj.back() == ',')
            obj.pop_back();
        if (obj.front() == ',')
            obj.erase(0, 1);
        EXPECT_TRUE(JsonChecker(obj).valid()) << obj;
        ++payload;
    }
    EXPECT_EQ(payload, 4u);
}

TEST(TraceSink, SpanGatingIsMaskBased)
{
    // The writer's mask decides which record kinds it subscribes to and
    // which records become spans.
    std::ostringstream os;
    trace::ChromeTraceWriter w(os, trace::kDramSpans);
    EXPECT_EQ(w.recordKinds(), recordBit(RecordKind::DramRead) |
                                   recordBit(RecordKind::DramWrite));
    Record mem{.tick = 20, .addr = 0x40, .w = {10}, .name = "load",
               .kind = RecordKind::MemDone};
    Record dram{.tick = 30, .addr = 0x80, .w = {100}, .tile = 1,
                .kind = RecordKind::DramRead};
    w.record(mem);
    w.record(dram);
    w.close();
    EXPECT_EQ(w.eventsWritten(), 3u); // dram process + thread + span
    EXPECT_EQ(os.str().find("\"name\":\"load\""), std::string::npos);
    EXPECT_NE(os.str().find("\"name\":\"read\",\"args\":"
                            "{\"addr\":\"0x80\"}"),
              std::string::npos);
}

TEST(TraceSink, SystemRunProducesSpans)
{
    // 16 tiles (4x4 mesh) with guests in every column, so --shards=4
    // emits spans from four domains; the released stream must be the
    // same bytes as the one-domain run's.
    auto runAt = [](unsigned shards) {
        std::ostringstream os;
        trace::ChromeTraceWriter w(os);
        SystemConfig cfg = SystemConfig::forCores(16);
        cfg.mem.l1Size = 1024;
        cfg.mem.l2Size = 4 * 1024;
        cfg.mem.l3BankSize = 16 * 1024;
        cfg.shards = shards;
        cfg.spanWriter = &w;
        System sys(cfg);
        EXPECT_EQ(sys.shardPlan().shards, shards);
        for (int tile : {0, 1, 2, 3, 6, 13}) {
            sys.addThread(tile, [tile](Guest &g) -> Task<> {
                const Addr base = 0x40000 + static_cast<Addr>(tile) * 0x800;
                for (Addr a = base; a < base + 0x1000; a += 64)
                    co_await g.store(a, a);
                for (Addr a = base; a < base + 0x1000; a += 64)
                    co_await g.load(a);
            });
        }
        sys.run();
        EXPECT_GT(w.eventsWritten(), 0u);
        w.close();
        return os.str();
    };
    const std::string one = runAt(1);
    EXPECT_TRUE(JsonChecker(one).valid());
    // Memory spans and DRAM bursts both appear.
    EXPECT_NE(one.find("\"name\":\"load\""), std::string::npos);
    EXPECT_NE(one.find("\"name\":\"store\""), std::string::npos);
    EXPECT_NE(one.find("\"name\":\"read\""), std::string::npos);
    EXPECT_EQ(runAt(4), one);
}

// -------------------------------------------------------------------
// RunMetrics carries a stats snapshot for the JSON exporters.
// -------------------------------------------------------------------

TEST(RunMetrics, CarriesStatsSnapshot)
{
    System sys(smallConfig());
    sys.addThread(0, [&](Guest &g) -> Task<> {
        for (Addr a = 0x40000; a < 0x41000; a += 64)
            co_await g.load(a);
    });
    const Tick cycles = sys.run();
    RunMetrics m = collectMetrics(sys, "test", cycles);
    ASSERT_TRUE(m.stats);
    EXPECT_GT(m.stats->get("l1.misses"), 0.0);
    // The snapshot is independent of the live registry.
    sys.stats().counter("l1.misses") += 1000;
    EXPECT_EQ(m.stats->get("l1.misses"), sys.stats().get("l1.misses") - 1000);

    std::ostringstream os;
    m.stats->dumpJson(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid());
}

// -------------------------------------------------------------------
// Sampler wired through SystemConfig.
// -------------------------------------------------------------------

TEST(SystemSampling, ConfigDrivenTimeSeries)
{
    SystemConfig cfg = smallConfig();
    cfg.sampleInterval = 100;
    cfg.samplePatterns = {"l1.*", "dram.*"};
    System sys(cfg);
    sys.addThread(0, [&](Guest &g) -> Task<> {
        for (Addr a = 0x40000; a < 0x44000; a += 64)
            co_await g.load(a);
    });
    const Tick cycles = sys.run();

    const StatsTimeSeries &ts = sys.stats().timeSeries();
    ASSERT_TRUE(ts.enabled());
    EXPECT_EQ(ts.numSamples(), static_cast<std::size_t>(cycles / 100));
    ASSERT_FALSE(ts.names.empty());
    for (const std::string &n : ts.names)
        EXPECT_TRUE(n.rfind("l1.", 0) == 0 || n.rfind("dram.", 0) == 0)
            << n;
    // Sampled counters are monotone over the run.
    const std::size_t cols = ts.names.size();
    for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t i = 1; i < ts.numSamples(); ++i)
            EXPECT_GE(ts.samples[i][j], ts.samples[i - 1][j]);
    }
}
