/**
 * @file
 * Tests for takoprof: the ReuseStack oracle, miss classification on
 * synthetic access patterns with known compulsory/capacity/conflict
 * splits, the reuse-distance histogram, profiler output (takoprof-v1
 * JSON, folded stacks), occupancy/NoC invariants against independent
 * counters, and the load-bearing property that enabling profiling does
 * not change a single simulated stat.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "expt/json.hh"
#include "prof/miss_classifier.hh"
#include "prof/profiler.hh"
#include "system/system.hh"
#include "workloads/common.hh"

using namespace tako;
using tako::expt::Json;

namespace
{

Addr
lineAddr(std::uint64_t n)
{
    return n * lineBytes;
}

SystemConfig
smallConfig(bool profile, unsigned cores = 4)
{
    SystemConfig cfg = SystemConfig::forCores(cores);
    cfg.mem.l1Size = 1024;
    cfg.mem.l2Size = 4 * 1024;
    cfg.mem.l3BankSize = 16 * 1024;
    cfg.mem.prefetchEnable = false;
    cfg.mem.latBreakdown = true;
    cfg.profile = profile;
    return cfg;
}

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

/** Mixed core + morph-callback workload emitting every record kind the
 *  profiler consumes. */
void
addProfWorkload(System &sys, FillMorph &morph)
{
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        for (Addr a = b->base; a < b->base + 64 * lineBytes; a += lineBytes)
            co_await g.load(a);
        for (int rep = 0; rep < 2; ++rep) {
            for (Addr a = 0x40000; a < 0x44000; a += lineBytes)
                co_await g.store(a, a);
        }
    });
    sys.addThread(1, [&](Guest &g) -> Task<> {
        for (int rep = 0; rep < 2; ++rep) {
            for (Addr a = 0x80000; a < 0x82000; a += lineBytes)
                co_await g.load(a);
        }
    });
}

} // namespace

// -------------------------------------------------------------------
// ReuseStack: the LRU stack-distance oracle.
// -------------------------------------------------------------------

TEST(ReuseStack, FirstTouchAndBasicDistances)
{
    prof::ReuseStack rs;
    EXPECT_EQ(rs.access(1), prof::ReuseStack::kFirstTouch);
    EXPECT_EQ(rs.access(1), 0u); // immediate re-reference
    EXPECT_EQ(rs.access(2), prof::ReuseStack::kFirstTouch);
    EXPECT_EQ(rs.access(3), prof::ReuseStack::kFirstTouch);
    // A B C A: two distinct lines between the As.
    EXPECT_EQ(rs.access(1), 2u);
    EXPECT_EQ(rs.distinctLines(), 3u);
}

TEST(ReuseStack, RepeatedAccessesDoNotInflateDistance)
{
    prof::ReuseStack rs;
    rs.access(1);
    rs.access(2);
    rs.access(2);
    rs.access(2); // re-references must not count as distinct lines
    EXPECT_EQ(rs.access(1), 1u);
}

TEST(ReuseStack, CompactionPreservesDistances)
{
    prof::ReuseStack rs;
    // Cycle over 8 lines far past the initial 1024-slot capacity: every
    // pass after the first must see distance 7 regardless of how many
    // compactions happened in between.
    for (std::uint64_t n = 0; n < 8; ++n)
        EXPECT_EQ(rs.access(n), prof::ReuseStack::kFirstTouch);
    for (int pass = 0; pass < 2000; ++pass) {
        for (std::uint64_t n = 0; n < 8; ++n)
            ASSERT_EQ(rs.access(n), 7u) << "pass " << pass;
    }
    EXPECT_EQ(rs.distinctLines(), 8u);
}

TEST(ReuseStack, ManyLiveLinesGrowTheSlotSpace)
{
    prof::ReuseStack rs;
    const std::uint64_t n = 5000; // > initial capacity, all live
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(rs.access(i), prof::ReuseStack::kFirstTouch);
    // Touch them again in order: each saw n-1 distinct lines since.
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(rs.access(i), n - 1);
}

// -------------------------------------------------------------------
// MissClassifier: synthetic patterns with known class splits.
// -------------------------------------------------------------------

TEST(MissClassifier, ColdStreamIsAllCompulsory)
{
    prof::MissClassifier mc("test");
    const unsigned s = mc.addStack(16);
    for (std::uint64_t n = 0; n < 100; ++n)
        mc.access(s, lineAddr(n), false);
    EXPECT_EQ(mc.counts().accesses, 100u);
    EXPECT_EQ(mc.counts().misses, 100u);
    EXPECT_EQ(mc.counts().compulsory, 100u);
    EXPECT_EQ(mc.counts().capacity, 0u);
    EXPECT_EQ(mc.counts().conflict, 0u);
    EXPECT_EQ(mc.firstTouches(), 100u);
}

TEST(MissClassifier, CyclicSweepBeyondCapacityIsCapacity)
{
    // Sweep C+4 lines cyclically through a C-line cache: pass 1 is
    // compulsory, every later miss sees reuse distance C+3 >= C.
    constexpr std::uint64_t C = 16;
    prof::MissClassifier mc("test");
    const unsigned s = mc.addStack(C);
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t n = 0; n < C + 4; ++n)
            mc.access(s, lineAddr(n), false);
    }
    EXPECT_EQ(mc.counts().compulsory, C + 4);
    EXPECT_EQ(mc.counts().capacity, 2 * (C + 4));
    EXPECT_EQ(mc.counts().conflict, 0u);
}

TEST(MissClassifier, ShortDistanceMissIsConflict)
{
    // Two lines alternating: distance 1 << capacity 16, yet the cache
    // missed (set-index collision). Must classify as conflict.
    prof::MissClassifier mc("test");
    const unsigned s = mc.addStack(16);
    mc.access(s, lineAddr(0), false); // compulsory
    mc.access(s, lineAddr(1), false); // compulsory
    for (int i = 0; i < 10; ++i) {
        mc.access(s, lineAddr(0), false);
        mc.access(s, lineAddr(1), false);
    }
    EXPECT_EQ(mc.counts().compulsory, 2u);
    EXPECT_EQ(mc.counts().capacity, 0u);
    EXPECT_EQ(mc.counts().conflict, 20u);
}

TEST(MissClassifier, HitsNeverClassify)
{
    prof::MissClassifier mc("test");
    const unsigned s = mc.addStack(4);
    mc.access(s, lineAddr(0), false);
    for (int i = 0; i < 5; ++i)
        mc.access(s, lineAddr(0), true);
    EXPECT_EQ(mc.counts().hits, 5u);
    EXPECT_EQ(mc.counts().misses, 1u);
    EXPECT_EQ(mc.counts().compulsory, 1u);
}

TEST(MissClassifier, ClassesPartitionMisses)
{
    prof::MissClassifier mc("test");
    const unsigned s = mc.addStack(8);
    Rng rng(7);
    for (int i = 0; i < 5000; ++i)
        mc.access(s, lineAddr(rng.next() % 64), rng.next() % 3 == 0);
    const auto &c = mc.counts();
    EXPECT_EQ(c.hits + c.misses, c.accesses);
    EXPECT_EQ(c.compulsory + c.capacity + c.conflict, c.misses);
}

TEST(MissClassifier, ReuseHistogramGolden)
{
    prof::MissClassifier mc("test");
    const unsigned s = mc.addStack(1024);
    // Construct exact distances: 0, 1, 2, 3, and 5.
    mc.access(s, lineAddr(0), false); // first touch
    mc.access(s, lineAddr(0), true);  // dist 0 -> bucket 0
    mc.access(s, lineAddr(1), false); // first touch
    mc.access(s, lineAddr(0), true);  // dist 1 -> bucket 1
    mc.access(s, lineAddr(2), false); // first touch
    mc.access(s, lineAddr(3), false); // first touch
    mc.access(s, lineAddr(1), true);  // dist 3 -> bucket 2 ([2,4))
    mc.access(s, lineAddr(4), false); // first touch
    mc.access(s, lineAddr(5), false); // first touch
    mc.access(s, lineAddr(0), true);  // dist 5 -> bucket 3 ([4,8))

    EXPECT_EQ(mc.firstTouches(), 6u);
    const auto &h = mc.reuseHist();
    EXPECT_EQ(h[0], 1u);
    EXPECT_EQ(h[1], 1u);
    EXPECT_EQ(h[2], 1u);
    EXPECT_EQ(h[3], 1u);
    for (unsigned b = 4; b < prof::MissClassifier::kReuseBuckets; ++b)
        EXPECT_EQ(h[b], 0u) << "bucket " << b;
    std::uint64_t total = mc.firstTouches();
    for (std::uint64_t v : h)
        total += v;
    EXPECT_EQ(total, mc.counts().accesses);
}

// -------------------------------------------------------------------
// Profiler-on-a-System: classification, occupancy, NoC, JSON output.
// -------------------------------------------------------------------

TEST(Profiler, ClassifiedAccessesMatchCacheStats)
{
    System sys(smallConfig(true));
    FillMorph morph;
    addProfWorkload(sys, morph);
    sys.run();

    ASSERT_NE(sys.profiler(), nullptr);
    const prof::Profiler &p = *sys.profiler();
    StatsRegistry &st = sys.stats();

    // Every L3 probe site is profiled, so classified accesses must agree
    // exactly with the cache's own hit/miss accounting.
    EXPECT_EQ(static_cast<double>(p.l3().counts().accesses),
              st.get("l3.hits") + st.get("l3.misses"));

    // Demand L1/L2 activity was classified (engine + core traffic means
    // totals differ from the hit/miss stats' mix, but never zero here).
    EXPECT_GT(p.l1().counts().accesses, 0u);
    EXPECT_GT(p.l2().counts().accesses, 0u);
    for (const prof::MissClassifier *mc : {&p.l1(), &p.l2(), &p.l3()}) {
        const auto &c = mc->counts();
        EXPECT_EQ(c.hits + c.misses, c.accesses) << mc->level();
        EXPECT_EQ(c.compulsory + c.capacity + c.conflict, c.misses)
            << mc->level();
    }

    // prof.* counters were injected at finalize.
    EXPECT_GT(st.get("prof.cb.count"), 0.0);
    EXPECT_EQ(st.get("prof.miss.l3.compulsory"),
              static_cast<double>(p.l3().counts().compulsory));
}

TEST(Profiler, CallbackAggregatesMatchEngineCounters)
{
    System sys(smallConfig(true));
    FillMorph morph;
    addProfWorkload(sys, morph);
    sys.run();

    const prof::Profiler &p = *sys.profiler();
    StatsRegistry &st = sys.stats();

    std::uint64_t count = 0;
    for (const auto &[key, agg] : p.callbacks()) {
        const auto &[tile, name, kind] = key;
        EXPECT_EQ(name, "fill");
        EXPECT_EQ(kind, 0u); // phantom loads only trigger onMiss
        EXPECT_GT(agg.total, 0u);
        EXPECT_GE(agg.total, agg.body);
        count += agg.count;
    }
    EXPECT_GT(count, 0u);
    EXPECT_EQ(static_cast<double>(count),
              st.get("engine.cb.miss") + st.get("engine.cb.eviction") +
                  st.get("engine.cb.writeback"));
    // The profiler's body cycles come from the same measurements as the
    // engine.breakdown.body histogram.
    std::uint64_t body = 0;
    for (const auto &[key, agg] : p.callbacks())
        body += agg.body;
    EXPECT_EQ(static_cast<double>(body),
              st.histogram("engine.breakdown.body").sum());
}

TEST(Profiler, OccupancyTimelineInvariants)
{
    System sys(smallConfig(true));
    FillMorph morph;
    addProfWorkload(sys, morph);
    const Tick cycles = sys.run();

    const prof::Profiler &p = *sys.profiler();
    bool any_peak = false;
    for (unsigned t = 0; t < 4; ++t) {
        const prof::Profiler::EngineOcc &o = p.engineOcc(t);
        EXPECT_EQ(o.cur, 0u) << "tile " << t
                             << ": callbacks still in flight at drain";
        any_peak |= o.peak > 0;
        // Occupancy-level cycles tile the whole run exactly.
        Tick sum = 0;
        for (Tick c : o.levelCycles)
            sum += c;
        EXPECT_EQ(sum, cycles) << "tile " << t;
        // Timeline ticks are non-decreasing.
        for (std::size_t i = 1; i < o.timelineTicks.size(); ++i)
            EXPECT_GE(o.timelineTicks[i], o.timelineTicks[i - 1]);
    }
    EXPECT_TRUE(any_peak);
}

TEST(Profiler, NocLinkCountersMatchFlitHops)
{
    System sys(smallConfig(true));
    FillMorph morph;
    addProfWorkload(sys, morph);
    sys.run();

    // Each flit occupies one link per hop, so the per-link busy cycles
    // must sum to exactly the mesh's flit-hop count.
    std::uint64_t busy = 0;
    for (std::uint64_t b : sys.profiler()->linkBusyCycles())
        busy += b;
    EXPECT_EQ(busy, sys.noc().flitHops());
    EXPECT_GT(busy, 0u);
}

// -------------------------------------------------------------------
// The determinism contract: profiling observes, never perturbs.
// -------------------------------------------------------------------

TEST(Profiler, EnablingProfilingChangesNoSimulatedStat)
{
    // One 8-tile (4x2 mesh) workload, unprofiled, profiled, and
    // profiled across four shard domains: profiling moves no simulated
    // stat, and the profile itself is the same at every shard count.
    struct Run
    {
        bool profile;
        unsigned shards;
    };
    const Run runs[] = {{false, 1}, {true, 1}, {true, 4}};
    std::map<std::string, double> counters[3];
    Tick cycles[3] = {0, 0, 0};
    std::string json[3];
    for (int run = 0; run < 3; ++run) {
        SystemConfig cfg = smallConfig(runs[run].profile, 8);
        cfg.shards = runs[run].shards;
        System sys(cfg);
        ASSERT_EQ(sys.shardPlan().shards, runs[run].shards);
        FillMorph morph;
        addProfWorkload(sys, morph);
        cycles[run] = sys.run();
        for (const auto &[name, c] : sys.stats().counters()) {
            // host.* is wall-clock.
            if (name.rfind("host.", 0) != 0)
                counters[run][name] = c.value();
        }
        // prof.* counters exist exactly when profiled.
        EXPECT_EQ(sys.stats().get("prof.cb.count") > 0, runs[run].profile);
        if (sys.profiler()) {
            std::ostringstream os;
            sys.profiler()->writeJson(os);
            json[run] = os.str();
        }
    }
    auto without = [](std::map<std::string, double> m, const char *prefix) {
        std::erase_if(m, [prefix](const auto &kv) {
            return kv.first.rfind(prefix, 0) == 0;
        });
        return m;
    };
    // prof.* exists only when profiled; everything else, the executor's
    // shard.* counters included, must match.
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(without(counters[0], "prof."), without(counters[1], "prof."));
    // shard.* describes the partition, so only it may differ across
    // shard counts.
    EXPECT_EQ(cycles[1], cycles[2]);
    EXPECT_EQ(without(counters[1], "shard."), without(counters[2], "shard."));
    EXPECT_FALSE(json[1].empty());
    EXPECT_EQ(json[1], json[2]);
}

// -------------------------------------------------------------------
// takoprof-v1 JSON and folded output.
// -------------------------------------------------------------------

TEST(Profiler, WriteJsonEmitsValidTakoprofV1)
{
    System sys(smallConfig(true));
    FillMorph morph;
    addProfWorkload(sys, morph);
    const Tick cycles = sys.run();

    std::ostringstream os;
    sys.profiler()->writeJson(os, {{"git_rev", "test"},
                                   {"workload", "synthetic"}});
    std::string err;
    Json doc = Json::parse(os.str(), &err);
    ASSERT_TRUE(err.empty()) << err << "\n" << os.str();

    EXPECT_EQ(doc["schema"].asString(), "takoprof-v1");
    EXPECT_EQ(doc["git_rev"].asString(), "test");
    EXPECT_EQ(doc["end_cycle"].asNumber(), static_cast<double>(cycles));

    ASSERT_TRUE(doc["callbacks"].isArray());
    ASSERT_FALSE(doc["callbacks"].asArray().empty());
    const Json &cb = doc["callbacks"].asArray()[0];
    EXPECT_EQ(cb["morph"].asString(), "fill");
    EXPECT_EQ(cb["kind"].asString(), "onMiss");
    EXPECT_GT(cb["cycles"]["total"].asNumber(), 0.0);

    for (const char *level : {"l1", "l2", "l3"}) {
        const Json &lv = doc["miss_class"][level];
        ASSERT_TRUE(lv.isObject()) << level;
        EXPECT_EQ(lv["hits"].asNumber() + lv["misses"].asNumber(),
                  lv["accesses"].asNumber());
        EXPECT_EQ(lv["compulsory"].asNumber() + lv["capacity"].asNumber() +
                      lv["conflict"].asNumber(),
                  lv["misses"].asNumber());
        EXPECT_EQ(lv["reuse_hist"]["log2_buckets"].asArray().size(),
                  static_cast<std::size_t>(
                      prof::MissClassifier::kReuseBuckets));
    }

    // 4 cores -> 4 engines, and a mesh heatmap with dim_y rows.
    EXPECT_EQ(doc["engines"].asArray().size(), 4u);
    const Json &noc = doc["noc"];
    const auto dimY = static_cast<std::size_t>(noc["dim_y"].asNumber());
    const auto dimX = static_cast<std::size_t>(noc["dim_x"].asNumber());
    EXPECT_EQ(dimX * dimY, 4u);
    ASSERT_EQ(noc["tile_busy"].asArray().size(), dimY);
    EXPECT_EQ(noc["tile_busy"].asArray()[0].asArray().size(), dimX);
    EXPECT_EQ(noc["links"].asArray().size(), 16u); // 4 tiles x 4 dirs

    // Set heat present for every level and sized by the arrays.
    for (const char *level : {"l1", "l2", "l3"})
        EXPECT_TRUE(doc["set_heat"][level].isArray()) << level;

    // Folded lines mirror the callbacks section.
    ASSERT_TRUE(doc["folded"].isArray());
    ASSERT_FALSE(doc["folded"].asArray().empty());
    const std::string line = doc["folded"].asArray()[0].asString();
    EXPECT_NE(line.find(";fill;onMiss;"), std::string::npos);
}

TEST(Profiler, WriteFoldedMatchesCallbackTotals)
{
    System sys(smallConfig(true));
    FillMorph morph;
    addProfWorkload(sys, morph);
    sys.run();

    std::ostringstream os;
    sys.profiler()->writeFolded(os);
    // Sum the folded counts per phase and compare against aggregates.
    std::uint64_t foldedBody = 0;
    std::istringstream in(os.str());
    std::string stack;
    std::uint64_t count;
    while (in >> stack >> count) {
        if (stack.find(";body") != std::string::npos)
            foldedBody += count;
    }
    std::uint64_t body = 0;
    for (const auto &[key, agg] : sys.profiler()->callbacks())
        body += agg.body;
    EXPECT_EQ(foldedBody, body);
    EXPECT_GT(foldedBody, 0u);
}

// -------------------------------------------------------------------
// Set heat: aggregated per level, sums to classified accesses.
// -------------------------------------------------------------------

TEST(Profiler, SetHeatAggregatesPerLevel)
{
    System sys(smallConfig(true));
    FillMorph morph;
    addProfWorkload(sys, morph);
    sys.run();

    // l2 heat: one counter per set, summing to every profiled l2 probe
    // (prefetch probes also bump heat, but prefetching is disabled here).
    const std::vector<std::uint64_t> &heat = sys.profiler()->setHeat(2);
    ASSERT_FALSE(heat.empty());
    std::uint64_t total = 0;
    for (std::uint64_t h : heat)
        total += h;
    EXPECT_EQ(total, sys.profiler()->l2().counts().accesses);
}

// -------------------------------------------------------------------
// RunMetrics carries the profiler.
// -------------------------------------------------------------------

TEST(Profiler, RunMetricsCarriesProfiler)
{
    System sys(smallConfig(true));
    FillMorph morph;
    addProfWorkload(sys, morph);
    const Tick cycles = sys.run();
    RunMetrics m = collectMetrics(sys, "test", cycles);
    ASSERT_TRUE(m.prof);
    EXPECT_TRUE(m.prof->finalized());
    EXPECT_GT(m.stats->get("prof.cb.count"), 0.0);

    System unprofiled(smallConfig(false));
    FillMorph morph2;
    addProfWorkload(unprofiled, morph2);
    const Tick c2 = unprofiled.run();
    RunMetrics m2 = collectMetrics(unprofiled, "test", c2);
    EXPECT_FALSE(m2.prof);
}
