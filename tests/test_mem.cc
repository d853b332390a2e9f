/**
 * @file
 * Integration tests for the memory hierarchy + täkō trigger paths:
 * timing sanity, coherence, phantom morphs, eviction callbacks,
 * flushData, and RMOs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/arena.hh"
#include "system/system.hh"

using namespace tako;

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg = SystemConfig::forCores(4);
    cfg.mem.l1Size = 1024;       // 2 sets x 8 ways
    cfg.mem.l2Size = 4 * 1024;   // 8 sets x 8 ways
    cfg.mem.l3BankSize = 16 * 1024;
    cfg.mem.prefetchEnable = false;
    return cfg;
}

/** Morph that fills lines with addr+i and records callbacks. */
class TestMorph : public Morph
{
  public:
    explicit TestMorph(bool miss = true, bool evict = true, bool wb = true)
        : Morph(MorphTraits{
              .name = "test",
              .hasMiss = miss,
              .hasEviction = evict,
              .hasWriteback = wb,
              .missKernel = {10, 3},
              .evictionKernel = {6, 2},
              .writebackKernel = {8, 2},
          })
    {
    }

    Task<>
    onMiss(EngineCtx &ctx) override
    {
        ++missCount;
        co_await ctx.compute(10, 3);
        for (unsigned i = 0; i < wordsPerLine; ++i)
            ctx.setLineWord(i, ctx.addr() + i);
    }

    Task<>
    onEviction(EngineCtx &ctx) override
    {
        ++evictCount;
        lastEvicted = ctx.addr();
        co_await ctx.compute(6, 2);
    }

    Task<>
    onWriteback(EngineCtx &ctx) override
    {
        ++wbCount;
        lastEvicted = ctx.addr();
        captured = ctx.capturedLine();
        co_await ctx.compute(8, 2);
    }

    int missCount = 0;
    int evictCount = 0;
    int wbCount = 0;
    Addr lastEvicted = 0;
    LineData captured{};
};

/** Morph whose onMiss counts the frames of an engine-L1-hit load and of
 *  a spawned atomicAdd to the real word @p target. */
class EngineFramesMorph : public Morph
{
  public:
    explicit EngineFramesMorph(Addr target)
        : Morph(MorphTraits{.name = "engineFrames",
                            .hasMiss = true,
                            .missKernel = {1, 1}}),
          target_(target)
    {
    }

    Task<>
    onMiss(EngineCtx &ctx) override
    {
        const FrameArena::Stats &arena = FrameArena::stats();
        auto frames = [&arena]() { return arena.allocs + arena.oversize; };
        co_await ctx.load(target_); // fills the engine L1 (Exclusive)
        std::uint64_t f0 = frames();
        co_await ctx.load(target_);
        loadFrames = frames() - f0;
        co_await ctx.atomicAdd(target_, 1);
        Join join(ctx.eq());
        f0 = frames();
        join.add();
        spawn(ctx.atomicAdd(target_, 1), join.completion());
        co_await join.wait();
        addFrames = frames() - f0;
    }

    std::uint64_t loadFrames = 0;
    std::uint64_t addFrames = 0;

  private:
    Addr target_;
};

/** Real-data morph whose onWriteback computes for @p cycles. */
class SlowWritebackMorph : public Morph
{
  public:
    explicit SlowWritebackMorph(unsigned cycles)
        : Morph(MorphTraits{.name = "slowWriteback",
                            .hasWriteback = true,
                            .writebackKernel = {1, 1}}),
          cycles_(cycles)
    {
    }

    Task<>
    onWriteback(EngineCtx &ctx) override
    {
        ++writebacks;
        co_await ctx.compute(cycles_, cycles_);
    }

    int writebacks = 0;

  private:
    unsigned cycles_;
};

} // namespace

TEST(MemorySystem, StoreLoadRoundTrip)
{
    System sys(smallConfig());
    std::uint64_t got = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        co_await g.store(0x10000, 1234);
        got = co_await g.load(0x10000);
    });
    sys.run();
    EXPECT_EQ(got, 1234u);
    sys.mem().checkInvariants();
}

TEST(MemorySystem, CacheHitsGetFaster)
{
    System sys(smallConfig());
    Tick first = 0, second = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        Tick t0 = g.now();
        co_await g.load(0x20000);
        first = g.now() - t0;
        t0 = g.now();
        co_await g.load(0x20000);
        second = g.now() - t0;
    });
    sys.run();
    // First access goes to DRAM (>=100 cycles); second hits the L1.
    EXPECT_GT(first, 100u);
    EXPECT_LE(second, 2 * sys.config().mem.l1Lat);
    EXPECT_EQ(sys.stats().get("dram.reads"), 1);
}

TEST(MemorySystem, ConcurrentAtomicAddsSumCorrectly)
{
    System sys(smallConfig());
    const Addr counter = 0x40000;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        sys.addThread(static_cast<int>(c), [&](Guest &g) -> Task<> {
            for (int i = 0; i < 50; ++i) {
                co_await g.atomicAdd(counter, 1);
                co_await g.exec(3);
            }
        });
    }
    sys.run();
    EXPECT_EQ(sys.mem().realStore().read64(counter),
              50u * sys.numCores());
    // Contention must have produced invalidations.
    EXPECT_GT(sys.stats().get("coherence.invalidations"), 0);
    sys.mem().checkInvariants();
}

TEST(MemorySystem, SharersSeeStoresAcrossTiles)
{
    System sys(smallConfig());
    const Addr flag = 0x50000;
    const Addr data = 0x51000;
    std::uint64_t observed = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        co_await g.store(data, 777);
        co_await g.store(flag, 1);
    });
    sys.addThread(1, [&](Guest &g) -> Task<> {
        // Spin on the flag (reads through coherence).
        while (co_await g.load(flag) == 0)
            co_await g.exec(16);
        observed = co_await g.load(data);
    });
    sys.run();
    EXPECT_EQ(observed, 777u);
    sys.mem().checkInvariants();
}

TEST(MemorySystem, PhantomMissCallbackFillsLine)
{
    System sys(smallConfig());
    TestMorph morph;
    std::uint64_t v0 = 0, v1 = 0, v0_again = 0;
    int misses_after_first = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        const Addr base = b->base;
        v0 = co_await g.load(base);
        v1 = co_await g.load(base + 8);
        misses_after_first = morph.missCount;
        v0_again = co_await g.load(base);
    });
    sys.run();
    EXPECT_EQ(morph.missCount, 1);
    EXPECT_EQ(misses_after_first, 1);
    EXPECT_EQ(v1, v0 + 1); // onMiss filled addr+i per word
    EXPECT_EQ(v0_again, v0);
    sys.mem().checkInvariants();
}

TEST(MemorySystem, PhantomEvictionsTriggerCallbacks)
{
    SystemConfig cfg = smallConfig();
    System sys(cfg);
    TestMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        // Touch far more lines than the L2 holds: evictions must fire.
        const unsigned lines =
            2 * cfg.mem.l2Size / lineBytes;
        for (unsigned i = 0; i < lines; ++i)
            co_await g.load(b->base + i * lineBytes);
        co_await g.flushData(b);
    });
    sys.run();
    const unsigned lines = 2 * cfg.mem.l2Size / lineBytes;
    EXPECT_EQ(morph.missCount, static_cast<int>(lines));
    // Every line eventually left the cache (capacity + flush), clean.
    EXPECT_EQ(morph.evictCount + morph.wbCount, static_cast<int>(lines));
    EXPECT_EQ(morph.wbCount, 0); // no stores -> onEviction only
    sys.mem().checkInvariants();
}

TEST(MemorySystem, DirtyPhantomLinesUseOnWriteback)
{
    System sys(smallConfig());
    TestMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        co_await g.store(b->base + 16, 99);
        co_await g.flushData(b);
    });
    sys.run();
    EXPECT_EQ(morph.wbCount, 1);
    EXPECT_EQ(morph.evictCount, 0);
    // Captured data: onMiss pattern with word 2 overwritten by the store.
    EXPECT_EQ(morph.captured[2], 99u);
    EXPECT_EQ(morph.captured[3], morph.lastEvicted + 3);
}

TEST(MemorySystem, FlushDataEmptiesTheRange)
{
    System sys(smallConfig());
    TestMorph morph;
    Addr base = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        base = b->base;
        for (unsigned i = 0; i < 8; ++i)
            co_await g.load(base + i * lineBytes);
        co_await g.flushData(b);
    });
    sys.run();
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_FALSE(sys.mem().cachedAnywhere(base + i * lineBytes));
    // Phantom store contents are gone too.
    EXPECT_EQ(sys.mem().phantomStore().read64(base), 0u);
}

TEST(MemorySystem, SharedPhantomRmoAccumulates)
{
    System sys(smallConfig());
    TestMorph morph(/*miss=*/true, /*evict=*/true, /*wb=*/true);
    Addr base = 0;
    // Register from core 0, then everyone pushes RMOs.
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Shared, 1 << 20);
        base = b->base;
        for (unsigned c = 0; c < 4; ++c) {
            for (int i = 0; i < 32; ++i)
                co_await g.rmoAdd(base + (i % 4) * 8, 1);
        }
        co_await g.rmoDrain();
    });
    sys.run();
    // onMiss filled words with addr+i; RMOs added on top. All pushes to
    // word w of line 0: 32 adds spread over words 0..3 (8 each) x 4 reps.
    for (unsigned w = 0; w < 4; ++w) {
        EXPECT_EQ(sys.mem().phantomStore().read64(base + w * 8),
                  base + w + 32);
    }
    EXPECT_EQ(morph.missCount, 1);
    EXPECT_GT(sys.stats().get("rmo.ops"), 0);
}

TEST(MemorySystem, RealMorphEvictionObserved)
{
    SystemConfig cfg = smallConfig();
    System sys(cfg);
    // Eviction-only morph over real data at the shared L3.
    TestMorph morph(/*miss=*/false, /*evict=*/true, /*wb=*/false);
    const Addr guarded = 0x100000;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerReal(
            morph, MorphLevel::Shared, guarded, lineBytes);
        (void)b;
        co_await g.load(guarded);
        // Blow the L3 with conflicting lines to evict the guarded one.
        for (unsigned i = 1; i < 4096; ++i)
            co_await g.load(guarded + i * 64 * 1024);
    });
    sys.run();
    EXPECT_GE(morph.evictCount, 1);
    EXPECT_EQ(morph.lastEvicted, guarded);
}

TEST(MemorySystem, LoadMultiOverlapsLatency)
{
    SystemConfig cfg = smallConfig();
    System sys(cfg);
    Tick serial = 0, overlapped = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        // 8 dependent loads, spread over distinct DRAM lines.
        Tick t0 = g.now();
        for (int i = 0; i < 8; ++i)
            co_await g.load(0x200000 + i * 4096);
        serial = g.now() - t0;
        // 8 independent loads.
        std::vector<Addr> addrs;
        for (int i = 0; i < 8; ++i)
            addrs.push_back(0x400000 + i * 4096);
        t0 = g.now();
        co_await g.loadMulti(addrs, nullptr);
        overlapped = g.now() - t0;
    });
    sys.run();
    EXPECT_LT(overlapped * 2, serial); // MLP at least halves the time
}

TEST(MemorySystem, UnregisterReleasesRange)
{
    System sys(smallConfig());
    TestMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        co_await g.load(b->base);
        co_await g.unregister(b);
    });
    sys.run();
    EXPECT_EQ(sys.registry().numRegistered(), 0u);
    EXPECT_EQ(morph.evictCount, 1); // unregister flushes with callbacks
}

TEST(MemorySystem, EnergyAccumulates)
{
    System sys(smallConfig());
    sys.addThread(0, [&](Guest &g) -> Task<> {
        for (int i = 0; i < 64; ++i)
            co_await g.load(0x300000 + i * lineBytes);
        co_await g.exec(1000);
    });
    sys.run();
    EXPECT_GT(sys.totalEnergy(), 0.0);
    EXPECT_GT(sys.stats().get("energy.dram"), 0.0);
    EXPECT_GT(sys.stats().get("energy.core"), 0.0);
}

TEST(MemorySystem, FramesPerOperation)
{
    // Coroutine frames (FrameArena allocations) one guest or engine
    // operation costs on a --shards=1 System. Forwarding Guest calls
    // return the Core's Task, spawn() adds no wrapper and takes any
    // Task<T>, fills allocate ways without a frame, and EngineCtx's
    // word accesses return one ported access. Counts before -> now:
    //   load missing L1, L2 and L3:
    //     Guest::load, memOp, access, fetchIntoL2, allocL3Way,
    //     dramFetch, insertL2: 7 -> 4
    //   L1-hit load: Guest::load, memOp, access: 3 -> 2
    //   RMO to a shared phantom line (L3 miss) plus its drain:
    //     Guest::rmoAdd, Core::rmoAdd, spawn wrapper, rmoIssue,
    //     remoteAtomicAdd, allocL3Way, Guest::rmoDrain, Core::rmoDrain:
    //     8 -> 3
    //   engine-L1-hit load from a callback: EngineCtx::load,
    //     portedAccess, Engine::memAccess, access: 4 -> 2
    //   spawned EngineCtx::atomicAdd hitting the engine L1 (PHI's
    //     in-place add): adapter lambda, atomicAdd, portedAccess,
    //     Engine::memAccess, access: 5 -> 2
    //   two-element storeMulti hitting L1 in M state: Guest::storeMulti,
    //     multiOp, 2 x (windowedOp, access) -> the shared overlap loop
    //     and 2 x (windowedOp, access): 6 -> 5
    System sys(smallConfig());
    TestMorph morph(/*miss=*/false, /*evict=*/false, /*wb=*/false);
    EngineFramesMorph engineMorph(0x40000);
    std::uint64_t missFrames = 0, hitFrames = 0, rmoFrames = 0;
    std::uint64_t storeMultiFrames = 0;
    double guestL3Misses = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Shared, 1 << 20);
        const FrameArena::Stats &arena = FrameArena::stats();
        auto frames = [&arena]() { return arena.allocs + arena.oversize; };
        std::uint64_t f0 = frames();
        co_await g.load(0x10000);
        missFrames = frames() - f0;
        f0 = frames();
        co_await g.load(0x10000);
        hitFrames = frames() - f0;
        f0 = frames();
        co_await g.rmoAdd(b->base, 1);
        co_await g.rmoDrain();
        rmoFrames = frames() - f0;
        // The first load and the RMO missed L3: the counts above
        // measured the paths named for them.
        guestL3Misses = sys.stats().get("l3.misses");
        co_await g.store(0x20000, 1);
        co_await g.store(0x20040, 1);
        const std::vector<std::pair<Addr, std::uint64_t>> writes{
            {0x20000, 5}, {0x20040, 6}};
        f0 = frames();
        co_await g.storeMulti(writes);
        storeMultiFrames = frames() - f0;
        const MorphBinding *eb = co_await g.registerPhantom(
            engineMorph, MorphLevel::Private, 1 << 20);
        co_await g.load(eb->base);
    });
    sys.run();
    EXPECT_EQ(missFrames, 4u);
    EXPECT_EQ(hitFrames, 2u);
    EXPECT_EQ(rmoFrames, 3u);
    EXPECT_EQ(guestL3Misses, 2);
    EXPECT_EQ(storeMultiFrames, 5u);
    EXPECT_EQ(sys.mem().realStore().read64(0x20000), 5u);
    EXPECT_EQ(sys.mem().realStore().read64(0x20040), 6u);
    EXPECT_EQ(engineMorph.loadFrames, 2u);
    EXPECT_EQ(engineMorph.addFrames, 2u);
    EXPECT_EQ(sys.mem().realStore().read64(0x40000), 2u);
}

TEST(MemorySystem, SharedMorphWritebackWaitsForItsCallback)
{
    // A dirty line of a real SHARED morph holds its WB-buffer entry
    // until onWriteback retires (Sec. 4.3): the DRAM write starts from
    // the retirement, however long the callback computes.
    System sys(smallConfig());
    SlowWritebackMorph morph(2000);
    const Addr line = 0x100000;
    Tick retired = 0, written = 0;
    int retires = 0, writes = 0;
    sys.mem().recorder().subscribe(
        recordBit(RecordKind::CbRetire) | recordBit(RecordKind::DramWrite),
        [&](const Record &r) {
            if (r.addr != line)
                return;
            if (r.kind == RecordKind::CbRetire) {
                retired = r.tick;
                ++retires;
            } else {
                written = r.tick;
                ++writes;
            }
        });
    Tick flushed = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerReal(
            morph, MorphLevel::Shared, line, lineBytes);
        co_await g.store(line, 7);
        const Tick t0 = g.now();
        co_await g.flushData(b);
        flushed = g.now() - t0;
    });
    sys.run();
    EXPECT_EQ(morph.writebacks, 1);
    ASSERT_EQ(retires, 1);
    ASSERT_EQ(writes, 1);
    EXPECT_GE(flushed, 2000u);
    EXPECT_GE(written, retired);
    EXPECT_EQ(sys.mem().realStore().read64(line), 7u);
}

TEST(MemorySystem, PhantomMissWaiterResumesInItsOwnEvent)
{
    // The events one private-phantom load fires when its onMiss runs,
    // pinned. The waiter resumes in the delta-0 event Join::done
    // schedules when the callback retires; resuming it by symmetric
    // transfer from the callback's final suspend would fire one event
    // fewer and move every later same-tick event of the tile.
    System sys(smallConfig());
    TestMorph morph;
    std::uint64_t events = 0;
    Tick latency = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        const std::uint64_t e0 = sys.eq().eventsFired();
        const Tick t0 = g.now();
        co_await g.load(b->base);
        latency = g.now() - t0;
        events = sys.eq().eventsFired() - e0;
    });
    sys.run();
    // L1 and L2 tag delays, the engine's scheduler, rTLB/bitstream and
    // compute delays, then the waiter's resume.
    EXPECT_EQ(morph.missCount, 1);
    EXPECT_EQ(events, 6u);
    EXPECT_EQ(latency, 94u);
}

namespace
{

/** Take @p lines ' locks in @p locks now, hold them @p hold cycles. */
Task<>
holdLines(EventQueue &eq, LineLockTable &locks, std::vector<Addr> lines,
          Tick hold)
{
    for (Addr a : lines)
        co_await locks.acquire(a);
    co_await Delay{eq, hold};
    for (Addr a : lines)
        locks.release(a);
}

struct StalledLoad
{
    Tick latency = 0;
    double lockWait = 0; ///< mem.breakdown.lock_wait summed over the run
};

/**
 * On tile 0, load every line of @p set, then load @p target, which maps
 * to the same L2 set (@p l3 false) or L3 set (@p l3 true). With
 * @p hold > 0, the set's lines' tile locks (bank locks at @p target 's
 * bank) are held from the target load's issue for @p hold cycles.
 */
StalledLoad
loadPastHeldSet(const std::vector<Addr> &set, Addr target, bool l3,
                Tick hold)
{
    SystemConfig cfg = smallConfig();
    cfg.mem.latBreakdown = true;
    System sys(cfg);
    StalledLoad r;
    const int bank = static_cast<int>(lineNumber(target) % cfg.mem.tiles);
    sys.addThread(0, [&](Guest &g) -> Task<> {
        for (Addr a : set)
            co_await g.load(a);
        if (hold > 0) {
            LineLockTable &locks = l3 ? sys.mem().bankLocks(bank)
                                      : sys.mem().tileLocks(0);
            spawn(holdLines(g.eq(), locks, set, hold));
        }
        const Tick t0 = g.now();
        co_await g.load(target);
        r.latency = g.now() - t0;
    });
    sys.run();
    r.lockWait = sys.stats().histogram("mem.breakdown.lock_wait").sum();
    return r;
}

/**
 * A fill whose set is entirely held retries every 4 cycles and charges
 * each retry's 4 cycles to lockWait: the stall adds exactly as much
 * latency as lockWait, in steps of 4, one step per 4 cycles of hold.
 */
void
expectFourCycleRetries(const std::vector<Addr> &set, Addr target, bool l3)
{
    const StalledLoad free = loadPastHeldSet(set, target, l3, 0);
    const Tick hold0 = free.latency + 10;
    std::vector<Tick> stall;
    for (Tick extra = 0; extra < 8; ++extra) {
        const StalledLoad held =
            loadPastHeldSet(set, target, l3, hold0 + extra);
        stall.push_back(held.latency - free.latency);
        EXPECT_GT(stall.back(), 0u) << "hold " << hold0 + extra;
        EXPECT_EQ(stall.back() % 4, 0u) << "hold " << hold0 + extra;
        EXPECT_EQ(held.lockWait - free.lockWait,
                  static_cast<double>(stall.back()))
            << "hold " << hold0 + extra;
    }
    // Four more cycles of hold cost exactly one more retry.
    for (std::size_t e = 0; e < 4; ++e)
        EXPECT_EQ(stall[e + 4], stall[e] + 4) << "hold " << hold0 + e;
}

} // namespace

TEST(MemorySystem, FullyHeldL2SetRetriesFillEveryFourCycles)
{
    // smallConfig's L2: 8 sets x 8 ways, so lines 512 B apart share a
    // set; eight of them fill it.
    std::vector<Addr> set;
    for (Addr i = 0; i < 8; ++i)
        set.push_back(0x100000 + i * 512);
    expectFourCycleRetries(set, 0x100000 + 8 * 512, /*l3=*/false);
}

TEST(MemorySystem, FullyHeldL3SetRetriesFillEveryFourCycles)
{
    // smallConfig's L3 banks: 16 sets x 16 ways over 4 banks, so lines
    // 1 KiB apart share a bank and a set; sixteen of them fill it.
    std::vector<Addr> set;
    for (Addr i = 0; i < 16; ++i)
        set.push_back(0x200000 + i * 1024);
    expectFourCycleRetries(set, 0x200000 + 16 * 1024, /*l3=*/true);
}
