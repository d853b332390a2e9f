/**
 * @file
 * google-benchmark microbenchmarks for the simulator's own primitives:
 * event-queue throughput, coroutine context switches, tag-array lookups
 * and victim selection, line locks, functional-memory reads and first
 * touches, NoC traversal and walks, Zipfian sampling, and a small
 * end-to-end simulated access. These track the *simulator's* host-side
 * performance (events/sec), which bounds how large the figure benches
 * can scale.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "mem/lock_table.hh"
#include "noc/mesh.hh"
#include "sim/arena.hh"
#include "sim/domains.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/task.hh"
#include "system/system.hh"

using namespace tako;

namespace
{

/**
 * The pre-calendar-queue kernel, kept verbatim as the baseline the
 * BM_EventQueueSchedule* comparison is measured against: std::function
 * entries (heap-allocating for captures past the SBO) in a binary heap.
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    void
    schedule(Tick delta, Callback fn, int prio = 0)
    {
        events_.push(Entry{now_ + delta, prio, nextSeq_++, std::move(fn)});
    }

    bool
    step()
    {
        if (events_.empty())
            return false;
        Entry e = std::move(const_cast<Entry &>(events_.top()));
        events_.pop();
        now_ = e.when;
        e.fn();
        return true;
    }

    void
    run()
    {
        while (step()) {}
    }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Callback fn;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        events_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

void
BM_EventQueueSchedule(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t count = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<Tick>(i % 7), [&count]() { ++count; });
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EventQueueSchedule);

void
BM_EventQueueScheduleLegacy(benchmark::State &state)
{
    LegacyEventQueue eq;
    std::uint64_t count = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<Tick>(i % 7), [&count]() { ++count; });
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EventQueueScheduleLegacy);

void
BM_EventQueueFarFuture(benchmark::State &state)
{
    // Deltas straddling the calendar window so the overflow heap and the
    // migrate-on-advance path stay on the profile.
    EventQueue eq;
    std::uint64_t count = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i) {
            const Tick delta =
                (i & 3) == 0 ? static_cast<Tick>(1000 + i * 17)
                             : static_cast<Tick>(i % 7);
            eq.schedule(delta, [&count]() { ++count; });
        }
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EventQueueFarFuture);

void
BM_EventQueueCrossStream(benchmark::State &state)
{
    // A 16-tile System's 17 key streams colliding at one tick in
    // descending stream order, four rounds deep: after the first round
    // every insert lands mid-lane, behind a higher stream's run.
    constexpr std::uint32_t kStreams = 17;
    StreamKeySource keys{kStreams};
    EventQueue eq;
    eq.setStreamKeys(keys);
    std::uint64_t count = 0;
    for (auto _ : state) {
        for (int round = 0; round < 4; ++round) {
            for (std::uint32_t s = kStreams; s-- > 0;)
                eq.scheduleKeyed(eq.now() + 1, [&count]() { ++count; },
                                 keys.next(s), s);
        }
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EventQueueCrossStream);

Task<>
pingPong(EventQueue &eq, int rounds)
{
    for (int i = 0; i < rounds; ++i)
        co_await Delay{eq, 1};
}

void
BM_CoroutineResume(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        spawn(pingPong(eq, 1024));
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CoroutineResume);

Task<>
tinyTask(EventQueue &eq)
{
    co_await Delay{eq, 1};
}

void
BM_CoroutineSpawn(benchmark::State &state)
{
    // Frame allocation cost: many short-lived coroutines per batch.
    // After the first batch every frame comes from the arena free list.
    EventQueue eq;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            spawn(tinyTask(eq));
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
    state.counters["arena_reuse_pct"] = benchmark::Counter(
        FrameArena::stats().allocs
            ? 100.0 * static_cast<double>(FrameArena::stats().reuses) /
                  static_cast<double>(FrameArena::stats().allocs)
            : 0.0);
}
BENCHMARK(BM_CoroutineSpawn);

void
BM_CacheLookup(benchmark::State &state)
{
    CacheArray cache(512 * 1024, 16, ReplPolicy::Trrip);
    Rng rng(1);
    // Pre-fill.
    for (unsigned i = 0; i < 8192; ++i) {
        const Addr a = rng.next() % (1 << 26) * lineBytes;
        if (CacheWay *v = cache.findVictim(a, false))
            cache.fill(*v, a, false, 0, false);
    }
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const Addr a = rng.next() % (1 << 26) * lineBytes;
        if (cache.lookup(a))
            ++hits;
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_CacheLookup);

void
BM_VictimSelection(benchmark::State &state)
{
    CacheArray cache(512 * 1024, 16, ReplPolicy::Trrip);
    Rng rng(2);
    for (auto _ : state) {
        const Addr a = rng.next() % (1 << 26) * lineBytes;
        CacheWay *v = cache.findVictim(a, (rng.next() & 1) != 0);
        if (v)
            cache.fill(*v, a, false, 0, false);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_VictimSelection);

Task<>
holdLines(LineLockTable &locks, Addr base, int n)
{
    for (int i = 0; i < n; ++i)
        co_await locks.acquire(base + Addr(i) * lineBytes);
}

Task<>
lockUnlock(LineLockTable &locks, Addr base, int n)
{
    for (int i = 0; i < n; ++i) {
        const Addr line = base + Addr(i) * lineBytes;
        co_await locks.acquire(line);
        locks.release(line);
    }
}

void
BM_LineLockAcquireRelease(benchmark::State &state)
{
    // Uncontended acquire + release, the per-transaction lock cost, with
    // 32 other lines held (a busy tile's in-flight transactions).
    EventQueue eq;
    LineLockTable locks(eq);
    spawn(holdLines(locks, 0x100000, 32));
    eq.run();
    for (auto _ : state) {
        spawn(lockUnlock(locks, 0x200000, 1024));
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LineLockAcquireRelease);

void
BM_BackingStoreRead64(benchmark::State &state)
{
    // Random word reads of written lines over a kv-replay-sized
    // footprint (~17K pages, one written line each): the present-line
    // path through a page's sparse table.
    constexpr std::uint64_t pages = 17 * 1024;
    constexpr Addr base = 0x10000000;
    BackingStore st;
    for (std::uint64_t p = 0; p < pages; ++p)
        st.write64(base + p * BackingStore::pageBytes, p);
    Rng rng(5);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        const Addr a = base + rng.below(pages) * BackingStore::pageBytes +
                       rng.below(wordsPerLine) * 8;
        sum += st.read64(a);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackingStoreRead64);

void
BM_BackingStoreReadDense(benchmark::State &state)
{
    // Random word reads over pages with every line written, as PHI's
    // graph fills them: each read goes through a promoted page's line
    // table. As many written lines as BM_BackingStoreRead64.
    constexpr std::uint64_t pages = 17 * 1024 / 64;
    constexpr std::uint64_t wordsPerPage = BackingStore::pageBytes / 8;
    constexpr Addr base = 0x10000000;
    BackingStore st;
    for (std::uint64_t w = 0; w < pages * wordsPerPage; w += wordsPerLine)
        st.write64(base + w * 8, w);
    Rng rng(5);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        const Addr a = base + rng.below(pages) * BackingStore::pageBytes +
                       rng.below(wordsPerPage) * 8;
        sum += st.read64(a);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackingStoreReadDense);

void
BM_BackingStoreFirstTouch(benchmark::State &state)
{
    // A fresh store written one word per page over a kv-replay-sized
    // footprint (~13K pages): every write creates a line and its
    // page's sparse table.
    constexpr std::uint64_t pages = 13 * 1024;
    constexpr Addr base = 0x10000000;
    for (auto _ : state) {
        auto st = std::make_unique<BackingStore>();
        for (std::uint64_t p = 0; p < pages; ++p)
            st->write64(base + p * BackingStore::pageBytes +
                            (p * 37 % 64) * lineBytes,
                        p);
        benchmark::DoNotOptimize(st.get());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_BackingStoreFirstTouch);

void
BM_MeshTraverse(benchmark::State &state)
{
    // Send-time booking only; runs walk the mesh (BM_MeshWalk).
    StatsRegistry stats;
    EnergyModel energy(stats);
    Mesh mesh(MeshParams{}, stats, energy);
    Rng rng(3);
    Tick now = 0;
    for (auto _ : state) {
        const int src = static_cast<int>(rng.below(16));
        const int dst = static_cast<int>(rng.below(16));
        benchmark::DoNotOptimize(mesh.traverse(now, src, dst, 72));
        now += 2;
    }
}
BENCHMARK(BM_MeshTraverse);

Task<>
walkBatch(Mesh &mesh, Domains &dom, Rng &rng, int n)
{
    for (int i = 0; i < n; ++i) {
        const int src = static_cast<int>(rng.below(16));
        const int dst = static_cast<int>(rng.below(16));
        co_await mesh.walk(dom, src, dst, 72);
    }
}

void
BM_MeshWalk(benchmark::State &state)
{
    // The path runs use: a coroutine awaiting Mesh::walk through a
    // one-domain router, one event per X hop plus the delivery.
    StatsRegistry stats;
    EnergyModel energy(stats);
    const MeshParams p;
    Mesh mesh(p, stats, energy);
    EventQueue eq;
    Domains dom;
    dom.init(ShardPlan::build(p.dimX, p.dimY, p.routerDelay, p.linkDelay, 1),
             {&eq});
    Rng rng(3);
    for (auto _ : state) {
        spawn(walkBatch(mesh, dom, rng, 1024));
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MeshWalk);

void
BM_ZipfianSample(benchmark::State &state)
{
    Rng rng(4);
    ZipfianGenerator zipf(16384, 0.99);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf(rng));
}
BENCHMARK(BM_ZipfianSample);

void
BM_SimulatedAccess(benchmark::State &state)
{
    // End-to-end: one simulated core load per iteration batch, including
    // the full transaction machinery (host cost per simulated access).
    for (auto _ : state) {
        state.PauseTiming();
        SystemConfig cfg = SystemConfig::forCores(4);
        System sys(cfg);
        state.ResumeTiming();
        sys.addThread(0, [&](Guest &g) -> Task<> {
            for (int i = 0; i < 4096; ++i)
                co_await g.load(0x100000 + (i % 512) * lineBytes);
        });
        sys.run();
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SimulatedAccess);

} // namespace
