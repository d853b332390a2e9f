/**
 * @file
 * Unit tests for the täkō engine layer: scheduler ordering, callback
 * buffer backpressure, fabric timing by engine kind, rTLB and bitstream
 * caches, interrupts, and the area model (Table 2).
 */

#include <gtest/gtest.h>

#include "system/system.hh"
#include "tako/area_model.hh"

using namespace tako;

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg = SystemConfig::forCores(4);
    cfg.mem.l1Size = 1024;
    cfg.mem.l2Size = 4 * 1024;
    cfg.mem.l3BankSize = 16 * 1024;
    cfg.mem.prefetchEnable = false;
    return cfg;
}

/** Morph recording callback order and timing. */
class OrderMorph : public Morph
{
  public:
    OrderMorph()
        : Morph(MorphTraits{
              .name = "order",
              .hasMiss = true,
              .hasEviction = true,
              .hasWriteback = true,
              .missKernel = {8, 3},
              .evictionKernel = {4, 2},
              .writebackKernel = {4, 2},
          })
    {
    }

    Task<>
    onMiss(EngineCtx &ctx) override
    {
        startOrder.push_back(ctx.addr());
        co_await ctx.compute(8, 3);
        for (unsigned i = 0; i < wordsPerLine; ++i)
            ctx.setLineWord(i, ctx.addr() + i);
        endOrder.push_back(ctx.addr());
    }

    Task<>
    onEviction(EngineCtx &ctx) override
    {
        evictions.push_back(ctx.addr());
        co_await ctx.compute(4, 2);
    }

    Task<>
    onWriteback(EngineCtx &ctx) override
    {
        co_await onEviction(ctx);
    }

    std::vector<Addr> startOrder;
    std::vector<Addr> endOrder;
    std::vector<Addr> evictions;
};

} // namespace

TEST(Engine, SameAddressCallbacksAreOrdered)
{
    System sys(smallConfig());
    OrderMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        // Load A, flush it (eviction), reload it: the engine must run
        // onMiss(A), onEviction(A), onMiss(A) in that order.
        co_await g.load(b->base);
        co_await g.flushData(b);
        co_await g.load(b->base);
        co_await g.flushData(b);
    });
    sys.run();
    ASSERT_EQ(morph.startOrder.size(), 2u);
    ASSERT_EQ(morph.evictions.size(), 2u);
}

TEST(Engine, ComputeLatencyByKind)
{
    SystemConfig cfg = smallConfig();
    System sys(cfg);
    Engine &eng = sys.engines().engine(0);
    // Dataflow 5x5: 15 int PEs; 30 instrs, depth 4 -> bounded by
    // throughput ceil(30/15)=2 vs depth 4 -> 4 cycles.
    EXPECT_EQ(eng.computeLatency(30, 4), 4u);
    // Throughput-bound: 60 instrs depth 2 -> ceil(60/15) = 4.
    EXPECT_EQ(eng.computeLatency(60, 2), 4u);

    cfg.engine.kind = EngineKind::Inorder;
    System sys2(cfg);
    EXPECT_EQ(sys2.engines().engine(0).computeLatency(30, 4), 60u);

    cfg.engine.kind = EngineKind::Ideal;
    System sys3(cfg);
    EXPECT_EQ(sys3.engines().engine(0).computeLatency(30, 4), 0u);
}

TEST(Engine, PeLatencyScalesDataflow)
{
    SystemConfig cfg = smallConfig();
    cfg.engine.peLatency = 4;
    System sys(cfg);
    EXPECT_EQ(sys.engines().engine(0).computeLatency(30, 4), 16u);
}

TEST(Engine, BitstreamLoadsOncePerMorph)
{
    System sys(smallConfig());
    OrderMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        for (int i = 0; i < 16; ++i)
            co_await g.load(b->base + i * lineBytes);
        co_await g.unregister(b);
    });
    sys.run();
    // One configuration load despite 16 misses.
    EXPECT_EQ(sys.stats().get("engine.bitstream.loads"), 1.0);
}

TEST(Engine, RtlbCapturesLocality)
{
    System sys(smallConfig());
    OrderMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        for (int i = 0; i < 64; ++i)
            co_await g.load(b->base + i * lineBytes);
        co_await g.unregister(b);
    });
    sys.run();
    // 2MB pages: all 64 lines in one page -> 1 miss, then hits.
    EXPECT_EQ(sys.stats().get("engine.rtlb.misses"), 1.0);
    EXPECT_GT(sys.stats().get("engine.rtlb.hits"), 32.0);
}

TEST(Engine, CallbackCountsByKind)
{
    System sys(smallConfig());
    OrderMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        co_await g.load(b->base);            // miss
        co_await g.store(b->base + 64, 42);  // miss (write)
        co_await g.flushData(b);             // evict clean A + dirty B
    });
    sys.run();
    EXPECT_EQ(sys.stats().get("engine.cb.miss"), 2.0);
    EXPECT_EQ(sys.stats().get("engine.cb.eviction"), 1.0);
    EXPECT_EQ(sys.stats().get("engine.cb.writeback"), 1.0);
}

TEST(Engine, CallbacksMayNotTouchMorphedData)
{
    // A callback accessing data morphed at the same level must panic;
    // covered via death test.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";

    class BadMorph : public Morph
    {
      public:
        BadMorph()
            : Morph(MorphTraits{.name = "bad",
                                .hasMiss = true,
                                .missKernel = {4, 2}})
        {
        }

        void bind(const MorphBinding *b) { self_ = b->base; }

        Task<>
        onMiss(EngineCtx &ctx) override
        {
            // Illegal: loads from its own phantom range.
            co_await ctx.load(self_ + 4096 * lineBytes);
        }

      private:
        Addr self_ = 0;
    };

    auto run = []() {
        System sys(smallConfig());
        BadMorph morph;
        sys.addThread(0, [&](Guest &g) -> Task<> {
            const MorphBinding *b = co_await g.registerPhantom(
                morph, MorphLevel::Private, 1 << 20);
            morph.bind(b);
            co_await g.load(b->base);
        });
        sys.run();
    };
    EXPECT_DEATH(run(), "morphed");
}

TEST(Engine, InterruptToCoreOutsideTheSystemDies)
{
    // EngineCtx::interrupt takes its core id from Morph code; an id
    // outside [0, tiles) must panic, not index the router's tile table.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";

    class StrayInterruptMorph : public Morph
    {
      public:
        explicit StrayInterruptMorph(int core)
            : Morph(MorphTraits{.name = "stray",
                                .hasMiss = true,
                                .missKernel = {1, 1}}),
              core_(core)
        {
        }

        Task<>
        onMiss(EngineCtx &ctx) override
        {
            co_await ctx.compute(1, 1);
            ctx.interrupt(core_);
        }

      private:
        int core_;
    };

    auto run = [](int core) {
        System sys(smallConfig());
        StrayInterruptMorph morph(core);
        sys.addThread(0, [&](Guest &g) -> Task<> {
            const MorphBinding *b = co_await g.registerPhantom(
                morph, MorphLevel::Private, 1 << 20);
            co_await g.load(b->base);
        });
        sys.run();
    };
    EXPECT_DEATH(run(4), "interrupt to core 4 outside \\[0, 4\\)");
    EXPECT_DEATH(run(-1), "interrupt to core -1 outside \\[0, 4\\)");
}

TEST(AreaModel, ReproducesTable2)
{
    SystemConfig cfg = SystemConfig::forCores(16);
    const AreaReport r = computeAreaReport(cfg.mem, cfg.engine);
    // Table 2 components.
    EXPECT_DOUBLE_EQ(r.l3TagBytes, 1024.0);                  // 1 KB
    EXPECT_DOUBLE_EQ(r.callbackBufferBytes, 512.0);          // 0.5 KB
    EXPECT_DOUBLE_EQ(r.tokenStoreBytes, 25 * 8 * 64.0);      // 12.5 KB
    EXPECT_DOUBLE_EQ(r.instrMemoryBytes, 25 * 16 * 4.0);     // 1.6 KB
    // Total ~5.3% of a 512KB bank (paper: 27.1KB / 512KB).
    EXPECT_NEAR(r.overheadFraction(), 0.053, 0.006);
}

TEST(EnergyModel, ComponentsAccumulate)
{
    StatsRegistry stats;
    EnergyModel e(stats);
    e.coreInstrs(10);
    e.engineInstrs(10);
    e.engineInstrs(10, true);
    e.l1Access();
    e.dramAccess();
    e.nocFlitHops(3);
    EXPECT_GT(stats.get("energy.core"), 0.0);
    EXPECT_GT(stats.get("energy.engine"), 0.0);
    EXPECT_GT(stats.get("energy.dram"), 0.0);
    EXPECT_DOUBLE_EQ(e.total(), stats.get("energy.total"));
    // In-order engines pay more per instruction than dataflow PEs.
    EXPECT_GT(e.params().inorderEngineInstr, e.params().engineInstr);
    // Engines are far cheaper per op than OOO cores.
    EXPECT_LT(e.params().engineInstr * 10, e.params().coreInstr);
}
