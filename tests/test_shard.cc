/**
 * @file
 * Tests for the sharded conservative executor: plan partitioning and
 * quantum derivation, the lookahead checks on cross-shard mail, and —
 * the load-bearing property — bit-identical results at every
 * worker-thread count, under real host threads and real cross-shard
 * traffic.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mon/sink.hh"
#include "sim/domains.hh"
#include "sim/shard.hh"
#include "system/system.hh"
#include "workloads/decompress.hh"
#include "workloads/pagerank_push.hh"
#include "workloads/prime_probe.hh"

using namespace tako;

// ------------------------------------------------------------ ShardPlan

TEST(ShardPlan, PartitionsColumnsContiguously)
{
    const ShardPlan p = ShardPlan::build(4, 4, 2, 1, 4);
    EXPECT_EQ(p.shards, 4u);
    EXPECT_EQ(p.columnShard, (std::vector<unsigned>{0, 1, 2, 3}));
    // 4x4 mesh with a tile per column band: tile 5 sits in column 1.
    EXPECT_EQ(p.shardOf(5), 1u);
    EXPECT_EQ(p.shardOf(12), 0u);
    // 3 vertical cuts x 4 rows x {E, W}.
    EXPECT_EQ(p.boundaryLinks, 3u * 4u * 2u);
}

TEST(ShardPlan, QuantumIsMinimumBoundaryCrossing)
{
    EXPECT_EQ(ShardPlan::build(4, 4, 2, 1, 4).quantum, Tick{3});
    EXPECT_EQ(ShardPlan::build(4, 4, 7, 5, 2).quantum, Tick{12});
    // Degenerate delays still give a usable (nonzero) window.
    EXPECT_EQ(ShardPlan::build(4, 4, 0, 0, 2).quantum, Tick{1});
}

TEST(ShardPlan, ClampsToColumns)
{
    // A 4-column mesh cannot split 8 ways; a request for 0 means 1.
    EXPECT_EQ(ShardPlan::build(4, 4, 2, 1, 8).shards, 4u);
    EXPECT_EQ(ShardPlan::build(4, 4, 2, 1, 0).shards, 1u);
    const ShardPlan two = ShardPlan::build(4, 2, 2, 1, 2);
    EXPECT_EQ(two.columnShard, (std::vector<unsigned>{0, 0, 1, 1}));
    EXPECT_EQ(two.boundaryLinks, 1u * 2u * 2u);
}

// ------------------------------------------------- ShardedExecutor core

namespace
{

/**
 * Synthetic PDES workload: four domains in a ring, each running a local
 * event chain whose accumulator mixes (tick, payload, order), with every
 * third hop mailing a payload to the next domain one-or-more quanta
 * ahead. Any reordering — across threads, rounds, or merge batches —
 * changes the accumulators, so equality below is bit-level determinism.
 * Domain d's events all execute at stream d + 1 of one shared key table,
 * the way Domains keys a decomposed System.
 */
struct RingModel
{
    static constexpr unsigned kDomains = 4;
    static constexpr Tick kQuantum = 3;

    std::array<std::unique_ptr<EventQueue>, kDomains> queues;
    StreamKeySource keys{kDomains + 1};
    std::unique_ptr<ShardedExecutor> exec;
    std::array<std::uint64_t, kDomains> acc{};
    std::array<std::uint64_t, kDomains> received{};

    explicit RingModel(unsigned threads)
    {
        std::vector<EventQueue *> domains;
        for (auto &q : queues) {
            q = std::make_unique<EventQueue>();
            q->setStreamKeys(keys);
            domains.push_back(q.get());
        }
        exec = std::make_unique<ShardedExecutor>(domains, kQuantum,
                                                 threads);
    }

    /** Mail @p fn from domain @p d to @p dst, keyed on d's stream. */
    void
    mail(unsigned d, unsigned dst, Tick when, std::function<void()> fn)
    {
        exec->sendKeyed(d, dst, when, keys.next(d + 1), dst + 1,
                        std::move(fn));
    }

    void
    mix(unsigned d, std::uint64_t v)
    {
        acc[d] = acc[d] * 6364136223846793005ULL + v + queues[d]->now();
    }

    void
    local(unsigned d, unsigned remaining)
    {
        mix(d, (std::uint64_t{d} << 32) + remaining);
        if (remaining == 0)
            return;
        if (remaining % 3 == 0) {
            const unsigned dst = (d + 1) % kDomains;
            const std::uint64_t payload = acc[d];
            // Conservative: at least one quantum ahead of "now".
            const Tick when =
                queues[d]->now() + kQuantum + (payload % (2 * kQuantum));
            mail(d, dst, when,
                 [this, dst, payload] { recv(dst, payload, 2); });
        }
        queues[d]->schedule(1 + (acc[d] % 3),
                            [this, d, remaining] {
                                local(d, remaining - 1);
                            });
    }

    void
    recv(unsigned d, std::uint64_t payload, unsigned ttl)
    {
        ++received[d];
        mix(d, payload);
        if (ttl > 0 && payload % 2 == 0) {
            const unsigned dst = (d + 1) % kDomains;
            const std::uint64_t fwd = acc[d];
            mail(d, dst, queues[d]->now() + kQuantum,
                 [this, dst, fwd, ttl] { recv(dst, fwd, ttl - 1); });
        }
    }

    void
    run(unsigned chainLength)
    {
        for (unsigned d = 0; d < kDomains; ++d) {
            queues[d]->scheduleKeyed(
                d, [this, d, chainLength] { local(d, chainLength); },
                keys.next(0), d + 1);
        }
        exec->run();
    }
};

} // namespace

TEST(ShardedExecutor, RingIsBitIdenticalAtEveryThreadCount)
{
    RingModel ref(1);
    ref.run(60);
    // The ring must actually communicate for this test to mean
    // anything.
    std::uint64_t totalReceived = 0;
    for (const std::uint64_t r : ref.received)
        totalReceived += r;
    ASSERT_GT(totalReceived, 20u);
    ASSERT_GT(ref.exec->crossShardEvents(), 20u);

    for (const unsigned threads : {2u, 4u}) {
        // Several repetitions per thread count: scheduling jitter
        // across runs must never reach the results.
        for (int rep = 0; rep < 3; ++rep) {
            RingModel m(threads);
            m.run(60);
            EXPECT_EQ(m.acc, ref.acc)
                << "threads=" << threads << " rep=" << rep;
            EXPECT_EQ(m.received, ref.received);
            EXPECT_EQ(m.exec->crossShardEvents(),
                      ref.exec->crossShardEvents());
            for (unsigned d = 0; d < RingModel::kDomains; ++d) {
                EXPECT_EQ(m.queues[d]->now(), ref.queues[d]->now());
                EXPECT_EQ(m.queues[d]->eventsFired(),
                          ref.queues[d]->eventsFired());
            }
        }
    }
}

TEST(ShardedExecutor, SoloDomainMatchesMonolithicRun)
{
    // One busy domain among four idle ones: the executor's free-running
    // solo path must reproduce a plain EventQueue::run() exactly.
    auto chain = [](EventQueue &q, std::uint64_t &acc, auto &&self,
                    unsigned remaining) -> void {
        acc = acc * 6364136223846793005ULL + q.now() + remaining;
        if (remaining == 0)
            return;
        q.schedule(1 + (acc % 4), [&q, &acc, &self, remaining] {
            self(q, acc, self, remaining - 1);
        });
    };

    EventQueue mono;
    std::uint64_t monoAcc = 0;
    mono.scheduleAbs(0, [&] { chain(mono, monoAcc, chain, 200); });
    mono.run();

    std::array<std::unique_ptr<EventQueue>, 4> queues;
    std::vector<EventQueue *> domains;
    for (auto &q : queues) {
        q = std::make_unique<EventQueue>();
        domains.push_back(q.get());
    }
    std::uint64_t shardAcc = 0;
    queues[0]->scheduleAbs(
        0, [&] { chain(*queues[0], shardAcc, chain, 200); });
    ShardedExecutor exec(domains, 3, 4);
    exec.run();

    EXPECT_EQ(shardAcc, monoAcc);
    EXPECT_EQ(queues[0]->now(), mono.now());
    EXPECT_EQ(queues[0]->eventsFired(), mono.eventsFired());
    EXPECT_EQ(exec.crossShardEvents(), 0u);
}

TEST(ShardedExecutor, EmptyDomainsTerminate)
{
    std::array<std::unique_ptr<EventQueue>, 3> queues;
    std::vector<EventQueue *> domains;
    for (auto &q : queues) {
        q = std::make_unique<EventQueue>();
        domains.push_back(q.get());
    }
    ShardedExecutor exec(domains, 5);
    exec.run(); // must not hang
    EXPECT_EQ(exec.crossShardEvents(), 0u);
}

TEST(ShardedExecutor, DeliveryRejectsMailInsideTheQuantum)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        std::array<std::unique_ptr<EventQueue>, 2> queues;
        std::vector<EventQueue *> domains;
        for (auto &q : queues) {
            q = std::make_unique<EventQueue>();
            domains.push_back(q.get());
        }
        ShardedExecutor exec(domains, 3, 1);
        // Domain 0 is the only busy domain, so it runs solo from tick 5;
        // its mail for tick 5 reaches domain 1 only in the window that
        // resumes after the solo clock, which already starts past it.
        queues[0]->scheduleAbs(5, [&exec] {
            exec.sendKeyed(0, 1, 5, 1, 0, [] {});
        });
        exec.run();
    };
    EXPECT_DEATH(run(), "violated the lookahead quantum");
}

TEST(ShardedExecutor, CrossDomainPostRejectsDeltaBelowQuantum)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        // 4x4 mesh in two column bands: tile 0 is in domain 0, tile 2 in
        // domain 1, and the quantum is 3.
        const ShardPlan plan = ShardPlan::build(4, 4, 2, 1, 2);
        std::array<std::unique_ptr<EventQueue>, 2> queues;
        std::vector<EventQueue *> domains;
        for (auto &q : queues) {
            q = std::make_unique<EventQueue>();
            domains.push_back(q.get());
        }
        Domains dom;
        dom.init(plan, domains);
        ShardedExecutor exec(domains, plan.quantum, 1);
        dom.setExecutor(&exec);
        queues[0]->scheduleKeyed(
            1, [&dom] { dom.post(2, 1, [] {}); }, dom.streams().next(0),
            Domains::streamOf(0));
        exec.run();
    };
    EXPECT_DEATH(run(), "violates the lookahead quantum");
}

TEST(Domains, PostOutsideAnEventDiesWhilePostAbsWorks)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // 4x4 mesh in two column bands: tile 2 is in domain 1.
    const ShardPlan plan = ShardPlan::build(4, 4, 2, 1, 2);
    EventQueue q0, q1;
    Domains dom;
    dom.init(plan, {&q0, &q1});
    // post() counts from the running event's clock; there is none.
    EXPECT_DEATH(dom.post(2, 1, [] {}), "outside an event");
    // postAbs() names its tick, so it stages work before a run (the
    // way System::bootGuests starts the guests), on the tile's queue.
    bool ran = false;
    dom.postAbs(2, 7, [&ran] { ran = true; });
    EXPECT_EQ(q0.pending(), 0u);
    EXPECT_EQ(q1.pending(), 1u);
    q1.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q1.now(), 7u);
}

// ------------------------------------------------------------- runLanes

TEST(RunLanes, JobToLaneMapIsAFunctionOfIndexOnly)
{
    // Each job writes into its own slot; with any lane count the merged
    // (index-ordered) output is the same.
    auto runWith = [](unsigned lanes) {
        std::vector<std::uint64_t> out(17, 0);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < out.size(); ++i) {
            jobs.push_back([&out, i] {
                std::uint64_t v = i + 1;
                for (int k = 0; k < 1000; ++k)
                    v = v * 2862933555777941757ULL + k;
                out[i] = v;
            });
        }
        runLanes(lanes, jobs);
        return out;
    };
    const auto ref = runWith(1);
    EXPECT_EQ(runWith(2), ref);
    EXPECT_EQ(runWith(4), ref);
    EXPECT_EQ(runWith(32), ref); // clamped to job count
}

// ------------------------------------- full System under --shards (16t)

namespace
{

/** Every counter from a 16-tile decompress run at a given shard count,
 *  minus the two namespaces that are exempt from cross-topology
 *  identity by contract: host.* (wall-clock gauges) and shard.* (the
 *  execution profile describes the topology itself — it is still
 *  deterministic across host thread counts at a fixed shard count,
 *  which test_mon.cc gates). */
std::map<std::string, double>
decompressCounters(unsigned shards)
{
    SystemConfig cfg = SystemConfig::forCores(16);
    cfg.mem.l1Size = 2 * 1024;
    cfg.mem.l2Size = 8 * 1024;
    cfg.mem.l3BankSize = 32 * 1024;
    cfg.shards = shards;
    DecompressConfig dc;
    dc.numValues = 2 * 1024;
    dc.numIndices = 4 * 1024;
    const RunMetrics m = runDecompress(DecompressVariant::Tako, dc, cfg);
    std::map<std::string, double> counters;
    for (const auto &[name, c] : m.stats->counters())
        if (name.rfind("host.", 0) != 0 && name.rfind("shard.", 0) != 0)
            counters.emplace(name, c.value());
    counters.emplace("__cycles", static_cast<double>(m.cycles));
    counters.emplace("__energy", m.energy);
    counters.emplace("__checksum", m.extra.at("checksum"));
    return counters;
}

} // namespace

TEST(ShardedSystem, SixteenTileRunIsBitIdenticalAcrossShardCounts)
{
    const auto ref = decompressCounters(1);
    ASSERT_FALSE(ref.empty());
    for (const unsigned shards : {2u, 4u}) {
        const auto got = decompressCounters(shards);
        ASSERT_EQ(got.size(), ref.size()) << "shards=" << shards;
        for (const auto &[name, value] : ref) {
            const auto it = got.find(name);
            ASSERT_NE(it, got.end()) << name;
            // Bit-identical, not approximately equal.
            EXPECT_EQ(it->second, value)
                << name << " differs at shards=" << shards;
        }
    }
}

TEST(ShardedSystem, ClampsShardRequestBeyondColumns)
{
    // An 8-core system is a 4x2 mesh: a request for 32 shards clamps to
    // the 4 columns, is reflected back into config().shards, and the
    // clamped system still runs to completion on the sharded executor.
    SystemConfig cfg = SystemConfig::forCores(8);
    cfg.shards = 32;
    System sys(cfg);
    EXPECT_EQ(sys.shardPlan().shards, 4u);
    EXPECT_EQ(sys.config().shards, 4u);
    sys.addThread(0, [](Guest &g) -> Task<> {
        for (int i = 0; i < 8; ++i)
            co_await g.load(0x1000 + i * lineBytes);
    });
    sys.addThread(7, [](Guest &g) -> Task<> {
        for (int i = 0; i < 8; ++i)
            co_await g.load(0x9000 + i * lineBytes);
    });
    const Tick cycles = sys.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(sys.stats().get("shard.domains"), 4.0);
}

TEST(ShardedSystem, OneColumnMeshRunsMonolithic)
{
    // A 1-column mesh has no vertical cut to shard along: any shard
    // request degenerates to a monolithic run (and the plan says so).
    const ShardPlan p = ShardPlan::build(1, 4, 2, 1, 4);
    EXPECT_EQ(p.shards, 1u);
    EXPECT_EQ(p.boundaryLinks, 0u);

    SystemConfig cfg = SystemConfig::forCores(4);
    cfg.mesh.dimX = 1;
    cfg.mesh.dimY = 4;
    cfg.shards = 4;
    System sys(cfg);
    EXPECT_EQ(sys.shardPlan().shards, 1u);
    EXPECT_EQ(sys.config().shards, 1u);
    sys.addThread(0, [](Guest &g) -> Task<> {
        for (int i = 0; i < 16; ++i)
            co_await g.load(0x4000 + i * lineBytes);
    });
    const Tick cycles = sys.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(sys.stats().get("shard.domains"), 1.0);
}

TEST(ShardedSystem, MoreTilesThanKeyStreamsIsFatal)
{
    // One key stream per tile plus the system's must fit the event
    // lanes' 64-stream bitmap: 63 tiles build, 64 are refused.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SystemConfig ok = SystemConfig::forCores(63);
    EXPECT_EQ(System(ok).config().mem.tiles, 63u);
    EXPECT_EXIT(System(SystemConfig::forCores(64)),
                ::testing::ExitedWithCode(1),
                "64 tiles exceed the event queue's limit of 63");
}

TEST(ShardedSystem, DirectoryTracksSharersAboveTile31)
{
    // Sharer masks hold one bit per tile, up to the 63-tile limit: a
    // store by tile 1 must invalidate tile 33's shared copy, not mistake
    // it for a bit of its own.
    SystemConfig cfg = SystemConfig::forCores(36);
    System sys(cfg);
    const Addr x = 0x40000;
    Tick loaded = 0, started = 0;
    sys.addThread(33, [&](Guest &g) -> Task<> {
        co_await g.load(x);
        loaded = g.now();
    });
    sys.addThread(1, [&](Guest &g) -> Task<> {
        co_await g.exec(20000);
        started = g.now();
        co_await g.load(x);
        co_await g.store(x, 7);
    });
    sys.run();
    ASSERT_GT(loaded, 0u);
    ASSERT_LT(loaded, started);
    EXPECT_FALSE(sys.mem().cachedInL2(33, x));
    EXPECT_EQ(sys.mem().l2State(1, x), Coh::M);
    EXPECT_EQ(sys.stats().get("coherence.invalidations"), 1.0);
    EXPECT_EQ(sys.mem().realStore().read64(x), 7u);
    sys.mem().checkInvariants();
}

TEST(ShardedSystem, GuestsBootInAddThreadOrderAtTickZero)
{
    // Boot posts draw system-stream keys, which order below every tile
    // stream, so at tick 0 the guests start in addThread order — not in
    // tile or domain order — at every shard count.
    const std::vector<int> cores = {5, 0, 12, 3, 9};
    for (const unsigned shards : {1u, 4u}) {
        SystemConfig cfg = SystemConfig::forCores(16);
        cfg.shards = shards;
        std::vector<int> issued;
        cfg.accessTracer = [&issued](Tick now, const AccessReq &req) {
            if (now == 0)
                issued.push_back(req.tile);
        };
        System sys(cfg);
        for (const int core : cores) {
            sys.addThread(core, [core](Guest &g) -> Task<> {
                co_await g.load(0x10000 + Addr(core) * lineBytes);
            });
        }
        sys.run();
        EXPECT_EQ(issued, cores) << "shards=" << shards;
    }
}

// --------------------------- cross-shard morph-callback ordering (16t)

namespace
{

/**
 * Morph logging the per-home-tile order of onMiss callbacks. A SHARED
 * binding homes each line's callback at its L3 slice, so loads from
 * cores in other mesh columns trigger callbacks across the shard cut.
 * Each tile's log is appended only by that tile's engine — i.e. only by
 * the domain that owns the tile — so the logs are race-free at every
 * partition and directly comparable across shard counts.
 */
class HomeOrderMorph : public Morph
{
  public:
    explicit HomeOrderMorph(unsigned tiles)
        : Morph(MorphTraits{
              .name = "home-order",
              .hasMiss = true,
              .missKernel = {4, 2},
          }),
          logs(tiles)
    {
    }

    Task<>
    onMiss(EngineCtx &ctx) override
    {
        logs[ctx.tile()].push_back(ctx.addr());
        co_await ctx.compute(4, 2);
        for (unsigned i = 0; i < wordsPerLine; ++i)
            ctx.setLineWord(i, ctx.addr() + i);
    }

    std::vector<std::vector<Addr>> logs;
};

/** Per-home-tile callback logs of a 16-core all-to-all shared-morph
 *  run at the given shard count. */
std::vector<std::vector<Addr>>
homeOrderLogs(unsigned shards)
{
    SystemConfig cfg = SystemConfig::forCores(16);
    cfg.mem.l1Size = 2 * 1024;
    cfg.mem.l2Size = 8 * 1024;
    cfg.shards = shards;
    System sys(cfg);
    HomeOrderMorph morph(sys.numCores());

    const MorphBinding *binding = nullptr;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        binding = co_await g.registerPhantom(morph, MorphLevel::Shared,
                                             2 * 1024 * 1024);
        for (int i = 0; i < 24; ++i)
            co_await g.load(binding->base + i * 16 * lineBytes);
    });
    for (unsigned c = 1; c < sys.numCores(); ++c) {
        sys.addThread(static_cast<int>(c), [&, c](Guest &g) -> Task<> {
            // Deterministic, domain-local delay past core 0's
            // registration (rTLB broadcast round trip finishes around
            // tick 1100). A cross-core semaphore would wake waiters on
            // the releaser's domain — not partition-safe — whereas
            // exec() retires on this core's own queue at any shard
            // count, and the quantum barrier's release/acquire pair
            // orders the `binding` write before these reads.
            co_await g.exec(6000);
            // Stride the whole range so core c's misses home on L3
            // slices in every mesh column, not just its own.
            for (int i = 0; i < 24; ++i)
                co_await g.load(binding->base +
                                (c + i * 16) * lineBytes);
        });
    }
    sys.run();

    if (shards > 1) {
        // The run must exercise the cross-shard path for the ordering
        // comparison to mean anything: every domain executed events.
        for (unsigned d = 0; d < shards; ++d)
            EXPECT_GT(sys.stats().get("shard.d" + std::to_string(d) +
                                      ".events"),
                      0.0)
                << "domain " << d << " idle at shards=" << shards;
        EXPECT_GT(sys.stats().get("shard.cross_msgs"), 0.0);
    }
    return morph.logs;
}

} // namespace

TEST(ShardedSystem, CrossShardCallbackOrderIsPartitionInvariant)
{
    const auto ref = homeOrderLogs(1);
    std::size_t total = 0;
    for (const auto &log : ref)
        total += log.size();
    // The shared range interleaves across all 16 home slices.
    ASSERT_GT(total, 100u);
    for (const auto &log : ref)
        EXPECT_FALSE(log.empty());

    for (const unsigned shards : {2u, 4u}) {
        const auto got = homeOrderLogs(shards);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t t = 0; t < ref.size(); ++t)
            EXPECT_EQ(got[t], ref[t])
                << "home tile " << t << " callback order differs at "
                << "shards=" << shards;
    }
}

// ------------------------------- PHI morph counters across shards (16t)

namespace
{

/** Non-host, non-shard counters plus the PHI policy extras of a 16-core
 *  PHI push run at the given shard count. */
std::map<std::string, double>
phiPushCounters(unsigned shards)
{
    PagerankPushConfig cfg;
    cfg.graph.numVertices = 1024;
    cfg.graph.avgDegree = 4;
    cfg.graph.communitySize = 64;
    cfg.threads = 16;
    cfg.regionVertices = 128;
    SystemConfig sys = SystemConfig::forCores(16);
    sys.mem.l1Size = 2 * 1024;
    sys.mem.l2Size = 4 * 1024;
    sys.mem.l3BankSize = 8 * 1024;
    sys.shards = shards;
    const RunMetrics m = runPagerankPush(PushVariant::Phi, cfg, sys);
    std::map<std::string, double> counters;
    for (const auto &[name, c] : m.stats->counters())
        if (name.rfind("host.", 0) != 0 && name.rfind("shard.", 0) != 0)
            counters.emplace(name, c.value());
    counters.emplace("__correct", m.extra.at("correct"));
    counters.emplace("__inPlaceLines", m.extra.at("inPlaceLines"));
    counters.emplace("__binnedUpdates", m.extra.at("binnedUpdates"));
    return counters;
}

} // namespace

TEST(ShardedSystem, PhiMorphCountersMatchAcrossShardCounts)
{
    // Every bank's engine bumps the PHI policy counters, so with several
    // domains they are bumped from several workers at once; per-bank
    // counts keep them exact (and TSan quiet).
    const auto ref = phiPushCounters(1);
    ASSERT_EQ(ref.at("__correct"), 1.0);
    // Both writeback policies ran, so both counters are under test.
    ASSERT_GT(ref.at("__inPlaceLines"), 0.0);
    ASSERT_GT(ref.at("__binnedUpdates"), 0.0);
    for (const unsigned shards : {2u, 4u}) {
        const auto got = phiPushCounters(shards);
        ASSERT_EQ(got.size(), ref.size()) << "shards=" << shards;
        for (const auto &[name, value] : ref)
            EXPECT_EQ(got.at(name), value)
                << name << " differs at shards=" << shards;
    }
}

TEST(ShardedSystem, PrimeProbeGuardTraceMatchesAcrossShardCounts)
{
    // The eviction guard is registered SHARED, so several banks' engines
    // record evictions, each on its own domain's clock at --shards > 1.
    const PrimeProbeConfig cfg;
    const auto trace = [&cfg](unsigned shards) {
        SystemConfig sys = SystemConfig::forCores(16);
        sys.shards = shards;
        return runPrimeProbe(true, cfg, sys).evictionTrace;
    };
    const auto ref = trace(1);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(trace(4), ref);
}

// ------------------------------------ bounded runs (runFor) at any shards

namespace
{

struct CutResult
{
    Tick ran = 0;
    bool midRun = false; ///< some guest was still running at the cut
    std::map<std::string, double> counters; ///< non-host, non-shard
    std::vector<Tick> sampleTicks;
    std::vector<std::vector<double>> samples;
};

/** A 16-tile system with guests in every mesh column, each streaming
 *  stores and loads over lines homed all across the mesh. */
void
addColumnGuests(System &sys)
{
    for (const int core : {0, 5, 10, 15}) {
        sys.addThread(core, [core](Guest &g) -> Task<> {
            for (int i = 0; i < 96; ++i) {
                const Addr a = 0x100000 + Addr(core) * 0x10000 +
                               Addr(i * 7 % 64) * lineBytes;
                co_await g.store(a, a + i);
                co_await g.load(0x200000 + Addr(i * 5 % 48) * lineBytes);
            }
        });
    }
}

/** A sampled 16-tile system; @p sink must outlive it. */
SystemConfig
cutConfig(unsigned shards, mon::TimeSeriesSink &sink)
{
    SystemConfig cfg = SystemConfig::forCores(16);
    cfg.mem.l1Size = 2 * 1024;
    cfg.mem.l2Size = 8 * 1024;
    cfg.shards = shards;
    cfg.observers = {&sink};
    return cfg;
}

CutResult
runCut(unsigned shards, Tick limit)
{
    mon::TimeSeriesSink sink({.sampleEvery = 250});
    System sys(cutConfig(shards, sink));
    addColumnGuests(sys);
    CutResult r;
    r.ran = sys.runFor(limit);
    for (unsigned c = 0; c < sys.numCores(); ++c)
        r.midRun = r.midRun || sys.core(static_cast<int>(c)).running();
    for (const auto &[name, c] : sys.stats().counters())
        if (name.rfind("host.", 0) != 0 && name.rfind("shard.", 0) != 0)
            r.counters.emplace(name, c.value());
    r.sampleTicks = sys.stats().timeSeries().ticks;
    r.samples = sys.stats().timeSeries().samples;
    return r;
}

} // namespace

TEST(ShardedSystem, RunForCutsEveryShardCountAtTheSameTick)
{
    Tick full = 0;
    {
        mon::TimeSeriesSink sink({.sampleEvery = 250});
        System sys(cutConfig(1, sink));
        addColumnGuests(sys);
        full = sys.run();
    }
    ASSERT_GT(full, 1000u);
    const Tick cut = full / 2;

    const CutResult ref = runCut(1, cut);
    EXPECT_EQ(ref.ran, cut);
    EXPECT_TRUE(ref.midRun);
    ASSERT_FALSE(ref.samples.empty());
    for (const unsigned shards : {2u, 4u}) {
        const CutResult got = runCut(shards, cut);
        EXPECT_EQ(got.ran, ref.ran) << "shards=" << shards;
        EXPECT_EQ(got.sampleTicks, ref.sampleTicks) << "shards=" << shards;
        EXPECT_EQ(got.samples, ref.samples) << "shards=" << shards;
        ASSERT_EQ(got.counters.size(), ref.counters.size());
        for (const auto &[name, value] : ref.counters)
            EXPECT_EQ(got.counters.at(name), value)
                << name << " differs at shards=" << shards;
    }
}
