/**
 * @file
 * Unit tests for the mesh NoC model: hop counts, zero-load latency,
 * serialization, link contention, and energy accounting, for both the
 * send-time traverse() and the event-driven walk() that runs use.
 */

#include <gtest/gtest.h>

#include "noc/mesh.hh"
#include "sim/arena.hh"
#include "sim/domains.hh"
#include "sim/task.hh"

using namespace tako;

namespace
{

struct MeshFixture : ::testing::Test
{
    MeshFixture() : energy(stats), mesh(MeshParams{}, stats, energy) {}

    StatsRegistry stats;
    EnergyModel energy;
    Mesh mesh; // 4x4 default
};

} // namespace

TEST_F(MeshFixture, HopCounts)
{
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 1), 1u);
    EXPECT_EQ(mesh.hops(0, 3), 3u);
    EXPECT_EQ(mesh.hops(0, 4), 1u);  // one row down
    EXPECT_EQ(mesh.hops(0, 15), 6u); // corner to corner
    EXPECT_EQ(mesh.hops(5, 10), 2u);
    EXPECT_EQ(mesh.hops(10, 5), 2u); // symmetric
}

TEST_F(MeshFixture, ZeroLoadLatencyScalesWithDistance)
{
    // Single-flit message: hops * (router + link) + final router.
    const Tick one = mesh.traverse(0, 0, 1, 8);
    EXPECT_EQ(one, 1 * (2 + 1) + 2);
    const Tick far = mesh.traverse(1000, 0, 15, 8);
    EXPECT_EQ(far, 6 * (2 + 1) + 2);
}

TEST_F(MeshFixture, LocalDeliveryCrossesRouterOnce)
{
    EXPECT_EQ(mesh.traverse(0, 5, 5, 72), MeshParams{}.routerDelay);
}

TEST_F(MeshFixture, LocalDeliveriesCountedSeparately)
{
    mesh.enableLinkProfiling();
    mesh.traverse(0, 5, 5, 72); // local: no link, no flit-hops
    mesh.traverse(0, 0, 3, 8);  // remote: 3 hops
    mesh.traverse(10, 7, 7, 8); // local again
    EXPECT_EQ(stats.get("noc.messages"), 3.0);
    EXPECT_EQ(stats.get("noc.localMessages"), 2.0);
    // Reconciliation invariant takoprof validates: per-link message
    // totals cover exactly the remote traverses (once per hop).
    std::uint64_t linkMsgs = 0;
    for (const std::uint64_t m : mesh.linkMessages())
        linkMsgs += m;
    EXPECT_EQ(linkMsgs, 3u); // one remote message x 3 hops
    EXPECT_EQ(mesh.flitHops(), 3u);
}

TEST_F(MeshFixture, AllLocalTrafficTouchesNoLink)
{
    mesh.enableLinkProfiling();
    for (int t = 0; t < 16; ++t)
        mesh.traverse(0, t, t, 64);
    EXPECT_EQ(stats.get("noc.messages"), 16.0);
    EXPECT_EQ(stats.get("noc.localMessages"), 16.0);
    EXPECT_EQ(mesh.flitHops(), 0u);
    for (const std::uint64_t m : mesh.linkMessages())
        EXPECT_EQ(m, 0u);
}

TEST_F(MeshFixture, SerializationAddsTailLatency)
{
    // 72B = 5 flits: 4 extra cycles for the tail.
    const Tick small = mesh.traverse(0, 0, 1, 8);
    const Tick big = mesh.traverse(10000, 0, 1, 72);
    EXPECT_EQ(big, small + 4);
}

TEST_F(MeshFixture, ContentionQueuesOnSharedLinks)
{
    // Two 5-flit messages on the same link at the same time: the second
    // waits for the first's serialization.
    const Tick first = mesh.traverse(500, 0, 1, 72);
    const Tick second = mesh.traverse(500, 0, 1, 72);
    EXPECT_GT(second, first);
    // A message on a different link is unaffected.
    const Tick other = mesh.traverse(500, 4, 5, 72);
    EXPECT_EQ(other, first);
}

TEST_F(MeshFixture, ContentionDrainsOverTime)
{
    const Tick base = mesh.traverse(0, 0, 3, 72);
    // Much later, the link is free again.
    const Tick later = mesh.traverse(100000, 0, 3, 72);
    EXPECT_EQ(base, later);
}

TEST_F(MeshFixture, FlitHopAccounting)
{
    mesh.reset();
    mesh.traverse(0, 0, 3, 72); // 5 flits x 3 hops
    EXPECT_EQ(mesh.flitHops(), 15u);
    EXPECT_GT(stats.get("noc.flitHops"), 0.0);
    EXPECT_GT(stats.get("energy.noc"), 0.0);
}

TEST(Mesh, RectangularTopology)
{
    StatsRegistry stats;
    EnergyModel energy(stats);
    MeshParams p;
    p.dimX = 4;
    p.dimY = 2;
    Mesh mesh(p, stats, energy);
    EXPECT_EQ(mesh.numTiles(), 8u);
    EXPECT_EQ(mesh.hops(0, 7), 4u); // 3 east + 1 south
}

// ---------------------------------------------------------------- walk

namespace
{

/**
 * A 4x4 mesh walked on one queue through a one-domain router, the way
 * a --shards=1 System drives it, beside a second mesh that only
 * traverse()s, as the reference.
 */
struct WalkFixture : ::testing::Test
{
    WalkFixture()
        : energy(stats), mesh(MeshParams{}, stats, energy),
          refEnergy(refStats), ref(MeshParams{}, refStats, refEnergy)
    {
        const MeshParams p;
        dom.init(ShardPlan::build(p.dimX, p.dimY, p.routerDelay,
                                  p.linkDelay, 1),
                 {&eq});
    }

    EventQueue eq;
    Domains dom;
    StatsRegistry stats;
    EnergyModel energy;
    Mesh mesh;
    StatsRegistry refStats;
    EnergyModel refEnergy;
    Mesh ref;
};

/** Walk @p src -> @p dst once, noting the arrival tick. */
Task<>
walkOnce(WalkFixture &f, int src, int dst, unsigned bytes, Tick &arrival)
{
    co_await f.mesh.walk(f.dom, src, dst, bytes);
    arrival = f.eq.now();
}

/** Every src/dst pair at 8 and 72 bytes, one walk at a time, each
 *  compared with traverse() on the reference mesh at the same tick. */
Task<>
walkEveryPair(WalkFixture &f, unsigned &mismatches)
{
    for (const unsigned bytes : {8u, 72u}) {
        for (int src = 0; src < 16; ++src) {
            for (int dst = 0; dst < 16; ++dst) {
                co_await Delay{f.eq, 1};
                const Tick t0 = f.eq.now();
                co_await f.mesh.walk(f.dom, src, dst, bytes);
                const Tick lat = f.eq.now() - t0;
                const Tick want = f.ref.traverse(t0, src, dst, bytes);
                EXPECT_EQ(lat, want)
                    << src << " -> " << dst << ", " << bytes << " B";
                mismatches += lat != want;
            }
        }
    }
}

} // namespace

TEST_F(WalkFixture, UncontendedWalkMatchesTraverseForEveryPair)
{
    mesh.enableLinkProfiling();
    ref.enableLinkProfiling();
    unsigned mismatches = 0;
    spawn(walkEveryPair(*this, mismatches));
    eq.run();
    EXPECT_EQ(mismatches, 0u);
    for (const char *name :
         {"noc.messages", "noc.localMessages", "noc.flitHops",
          "energy.noc"})
        EXPECT_EQ(stats.get(name), refStats.get(name)) << name;
    EXPECT_EQ(stats.get("noc.messages"), 512.0);
    EXPECT_EQ(stats.get("noc.localMessages"), 32.0);
    EXPECT_EQ(mesh.linkBusyCycles(), ref.linkBusyCycles());
    EXPECT_EQ(mesh.linkMessages(), ref.linkMessages());
}

TEST_F(WalkFixture, SharedLinkIsReservedInArrivalOrder)
{
    // A (0 -> 3) is sent first, B (1 -> 3) second, both at tick 0 with
    // 5 flits. B's head reaches link 1->2 at tick 0 and A's at tick 3,
    // so B holds it first and A waits for B's tail: B sees zero load
    // (2 hops: 12) and A two extra cycles (3 hops: 15 + 2). Send-order
    // booking (traverse) would do the reverse: A 15, B 20.
    Tick arriveA = 0, arriveB = 0;
    eq.schedule(0, [&] {
        spawn(walkOnce(*this, 0, 3, 72, arriveA));
        spawn(walkOnce(*this, 1, 3, 72, arriveB));
    });
    eq.run();
    EXPECT_EQ(arriveB, 12u);
    EXPECT_EQ(arriveA, 17u);
    EXPECT_EQ(ref.traverse(0, 0, 3, 72), 15u);
    EXPECT_EQ(ref.traverse(0, 1, 3, 72), 20u);
    EXPECT_EQ(mesh.flitHops(), 5u * 3 + 5u * 2);
}

TEST_F(WalkFixture, WalkStartedOutsideAnEventReadsTheQueueClock)
{
    // A coroutine spawned before run() takes its first step with no
    // event executing, so the walk's first hop must read the clock from
    // the source tile's queue.
    eq.runUntil(100);
    EventQueue::clearExecCtx();
    Tick arrival = 0;
    spawn(walkOnce(*this, 0, 15, 8, arrival));
    eq.run();
    EXPECT_EQ(arrival, 100 + ref.traverse(100, 0, 15, 8));
}

namespace
{

Task<>
walkBurst(WalkFixture &f, std::uint64_t &frames, Tick &charged,
          Tick &elapsed)
{
    co_await Delay{f.eq, 1};
    const FrameArena::Stats &arena = FrameArena::stats();
    const std::uint64_t before = arena.allocs + arena.oversize;
    const Tick t0 = f.eq.now();
    for (int i = 0; i < 16; ++i)
        co_await f.mesh.walk(f.dom, i, 15 - i, 72, &charged);
    elapsed = f.eq.now() - t0;
    frames = arena.allocs + arena.oversize - before;
}

} // namespace

TEST_F(WalkFixture, AwaitedWalkAllocatesNoFrameAndChargesItsLatency)
{
    std::uint64_t frames = ~std::uint64_t{0};
    Tick charged = 0, elapsed = 0;
    spawn(walkBurst(*this, frames, charged, elapsed));
    eq.run();
    EXPECT_EQ(frames, 0u);
    EXPECT_GT(elapsed, 0u);
    EXPECT_EQ(charged, elapsed);
}
