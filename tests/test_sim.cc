/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, coroutine
 * tasks, synchronization primitives (including the per-line lock
 * table), RNG distributions.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "mem/lock_table.hh"
#include "sim/addr_map.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/interval_map.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

using namespace tako;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(0); });
    eq.schedule(5, [&]() { order.push_back(1); });
    eq.schedule(5, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.schedule(1, [&]() { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, ReentrantSameTickRunsAfterQueuedEvents)
{
    // Documented contract: an event scheduled *during* tick T at delta 0
    // draws a later key than every event already queued at T, so it runs
    // after them (and after the currently-running one): A, B, C.
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(5, [&]() {
        order.push_back('A');
        eq.schedule(0, [&]() { order.push_back('C'); });
    });
    eq.schedule(5, [&]() { order.push_back('B'); });
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

TEST(EventQueue, FarFutureOverflowOrdering)
{
    // Deltas past the 256-tick calendar window land in the overflow
    // heap, yet the global firing order must stay sorted by tick.
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick d : {Tick{10}, Tick{300}, Tick{5}, Tick{700}, Tick{260},
                   Tick{40}})
        eq.schedule(d, [&fired, d]() { fired.push_back(d); });
    EXPECT_EQ(eq.overflowPending(), 3u); // 300, 700, 260
    EXPECT_EQ(eq.pending(), 6u);
    eq.run();
    EXPECT_EQ(fired,
              (std::vector<Tick>{5, 10, 40, 260, 300, 700}));
    EXPECT_EQ(eq.overflowPending(), 0u);
}

TEST(EventQueue, MigrationPreservesFifoAtSameTick)
{
    // An event migrated from the overflow heap into the wheel must keep
    // its place ahead of a same-tick event scheduled directly into the
    // wheel later (lower sequence number fires first).
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAbs(500, [&]() { order.push_back(1); }); // via overflow
    eq.schedule(400, [&]() {
        order.push_back(0);
        // now == 400: abs 500 is inside the window, goes straight to
        // the wheel where the migrated event already waits.
        eq.schedule(100, [&]() { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

namespace
{

/**
 * Random keyed traffic from a 16-tile System's 17 streams against a
 * reference that keeps every pending (tick, key) sorted: each event
 * must pop as the reference's minimum. Keys are drawn at insert, so
 * each stream's keys reach a lane in ascending order, as in a run.
 */
struct KeyOrderModel
{
    static constexpr std::uint32_t kStreams = 17;

    StreamKeySource keys{kStreams};
    EventQueue eq;
    Rng rng{20};
    std::set<std::pair<Tick, std::uint64_t>> ref;
    std::uint64_t fired = 0;
    std::uint64_t misordered = 0;
    std::uint64_t midLane = 0; ///< inserts between two same-tick events
    std::uint64_t children = 0;

    KeyOrderModel() { eq.setStreamKeys(keys); }

    void
    add(std::uint32_t stream, Tick when)
    {
        const std::uint64_t key = keys.next(stream);
        const auto it = ref.emplace(when, key).first;
        if (it != ref.begin() && std::prev(it)->first == when &&
            std::next(it) != ref.end() && std::next(it)->first == when)
            ++midLane;
        eq.scheduleKeyed(
            when, [this, when, key] { fire(when, key); }, key, stream);
    }

    /** Same-tick collisions in descending stream order, @p rounds deep:
     *  after the first round every insert lands mid-lane. */
    void
    collide(Tick when, unsigned rounds)
    {
        for (unsigned r = 0; r < rounds; ++r)
            for (std::uint32_t s = kStreams; s-- > 0;)
                if (rng.below(4) != 0)
                    add(s, when);
    }

    void
    fire(Tick when, std::uint64_t key)
    {
        ++fired;
        if (ref.empty() || *ref.begin() != std::make_pair(when, key))
            ++misordered;
        ref.erase({when, key});
        // Callbacks reschedule from random streams: at this very tick
        // (possibly below the running key), nearby, or past the wheel.
        if (children >= 20000)
            return;
        for (std::uint64_t n = rng.below(3); n > 0; --n, ++children) {
            const std::uint64_t pick = rng.below(8);
            const Tick delta = pick < 3   ? 0
                               : pick < 7 ? rng.below(40)
                                          : 256 + rng.below(600);
            add(static_cast<std::uint32_t>(rng.below(kStreams)),
                eq.now() + delta);
        }
    }
};

} // namespace

TEST(EventQueue, CrossStreamInsertsPopInTickKeyOrder)
{
    KeyOrderModel m;
    std::size_t maxOverflow = 0;
    for (int phase = 0; phase < 200; ++phase) {
        const Tick now = m.eq.now();
        m.collide(now + m.rng.below(300), 1 + m.rng.below(4));
        m.collide(now + 256 + m.rng.below(2000), 2); // overflow heap
        for (int i = 0; i < 8; ++i)
            m.add(static_cast<std::uint32_t>(
                      m.rng.below(KeyOrderModel::kStreams)),
                  now + m.rng.below(64));
        maxOverflow = std::max(maxOverflow, m.eq.overflowPending());
        m.eq.runUntil(now + m.rng.below(500));
    }
    m.eq.run();
    EXPECT_EQ(m.misordered, 0u);
    EXPECT_TRUE(m.ref.empty());
    EXPECT_EQ(m.eq.pending(), 0u);
    // The run must have exercised every path it claims to.
    EXPECT_GT(m.fired, 25000u);
    EXPECT_GT(m.midLane, 8000u);
    EXPECT_GT(maxOverflow, 200u);
}

TEST(EventQueue, KeyBelowItsStreamsLastInLaneDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StreamKeySource keys{17};
    EventQueue eq;
    eq.setStreamKeys(keys);
    const std::uint64_t early = keys.next(3);
    const std::uint64_t late = keys.next(3);
    eq.scheduleKeyed(5, [] {}, late, 4);
    eq.scheduleKeyed(5, [] {}, keys.next(2), 4); // other streams are fine
    EXPECT_DEATH(eq.scheduleKeyed(5, [] {}, early, 4),
                 "reached tick 5 after its stream's key");
    // Out of order across ticks is not a lane violation.
    eq.scheduleKeyed(6, [] {}, early, 4);
    EXPECT_DEATH(eq.setStreamKeys(keys), "installed with 3 events pending");
    eq.run();
    StreamKeySource wide{EventQueue::kMaxStreams + 1};
    EXPECT_DEATH(eq.setStreamKeys(wide), "65 key streams exceed");
}

TEST(EventQueue, PoolGrowsAndRecyclesNodes)
{
    EventQueue eq;
    const std::size_t slabs0 = eq.pool().slabCount();
    int fired = 0;
    for (int i = 0; i < 600; ++i)
        eq.schedule(static_cast<Tick>(i % 11), [&]() { ++fired; });
    // 600 live events force extra slabs beyond the initial one.
    EXPECT_GT(eq.pool().slabCount(), slabs0);
    EXPECT_GE(eq.pool().capacity(), 600u);
    eq.run();
    EXPECT_EQ(fired, 600);
    // Drained: every node is back on the free list.
    EXPECT_EQ(eq.pool().freeCount(), eq.pool().capacity());
    // A second wave is served entirely from recycled nodes.
    const std::size_t cap = eq.pool().capacity();
    for (int i = 0; i < 600; ++i)
        eq.schedule(static_cast<Tick>(i % 11), [&]() { ++fired; });
    EXPECT_EQ(eq.pool().capacity(), cap);
    eq.run();
    EXPECT_EQ(fired, 1200);
}

TEST(EventQueue, ResetDropsPendingAndDestroysCallables)
{
    EventQueue eq;
    auto token = std::make_shared<int>(7);
    eq.schedule(1, [token]() { ADD_FAILURE() << "dropped event ran"; });
    eq.schedule(1000, [token]() { ADD_FAILURE() << "dropped event ran"; });
    EXPECT_EQ(token.use_count(), 3);
    eq.reset();
    // Both the wheel-resident and the overflow-resident callables were
    // destroyed, not leaked.
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    int fired = 0;
    eq.schedule(3, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CallableRunsAndIsDestroyedOnce)
{
    // A by-value capture constructed in the node's inline buffer must
    // run once and be destroyed exactly once.
    EventQueue eq;
    auto token = std::make_shared<int>(0);
    std::array<char, 48> payload{};
    payload[0] = 42;
    {
        eq.schedule(1, [token, payload]() { *token = payload[0]; });
    }
    EXPECT_EQ(token.use_count(), 2);
    eq.run();
    EXPECT_EQ(*token, 42);
    EXPECT_EQ(token.use_count(), 1);
}

namespace
{

Task<>
delayTwice(Tick d, int &count)
{
    co_await Delay{d};
    ++count;
    co_await Delay{d};
    ++count;
}

/** Two delayed steps, then a value nobody reads when spawned. */
Task<std::uint64_t>
delayedValue(Tick d, int &count)
{
    co_await delayTwice(d, count);
    co_return 42;
}

Task<int>
addAsync(int a, int b)
{
    co_await Delay{5};
    co_return a + b;
}

Task<>
caller(int &result)
{
    result = co_await addAsync(2, 3);
}

} // namespace

TEST(Task, DelaysAdvanceTime)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(0, [&]() {
        spawn(delayTwice(10, count));
        EXPECT_EQ(count, 0); // runs only to its first Delay
    });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(Task, ValueTaskReturnsThroughAwait)
{
    EventQueue eq;
    int result = 0;
    eq.schedule(0, [&]() { spawn(caller(result)); });
    eq.run();
    EXPECT_EQ(result, 5);
}

TEST(Task, SpawnOnDoneFires)
{
    EventQueue eq;
    int count = 0;
    bool done = false;
    eq.schedule(0, [&]() {
        spawn(delayTwice(1, count), [&]() { done = true; });
    });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(count, 2);
}

TEST(Task, SpawnedTaskIsItsOwnOnlyFrame)
{
    // spawn() detaches the task itself: no wrapper frame. on_done runs
    // once, from the task's final suspend — after the body, while the
    // frame is still live — and then the frame frees itself.
    EventQueue eq;
    const FrameArena::Stats &arena = FrameArena::stats();
    const std::uint64_t allocs0 = arena.allocs + arena.oversize;
    const std::uint64_t live0 = arena.live;
    int count = 0, calls = 0, countAtDone = -1;
    std::uint64_t liveAtDone = 0;
    eq.schedule(0, [&]() {
        spawn(delayTwice(1, count), [&]() {
            ++calls;
            countAtDone = count;
            liveAtDone = arena.live;
        });
        EXPECT_EQ(arena.allocs + arena.oversize - allocs0, 1u);
        EXPECT_EQ(calls, 0);
    });
    eq.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(countAtDone, 2);
    EXPECT_EQ(liveAtDone, live0 + 1);
    EXPECT_EQ(arena.live, live0);

    // An empty Task has nothing to run: on_done fires at once, and no
    // frame is allocated.
    spawn(Task<>{}, [&]() { ++calls; });
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(arena.allocs + arena.oversize - allocs0, 1u);
    EXPECT_EQ(arena.live, live0);

    // spawn() takes a Task<T> too, and drops its value with the frame.
    // on_done runs once, after the body (which awaits a nested task, the
    // second frame), while the spawned frame is still live.
    count = calls = 0;
    countAtDone = -1;
    eq.schedule(0, [&]() {
        spawn(delayedValue(1, count), [&]() {
            ++calls;
            countAtDone = count;
            liveAtDone = arena.live;
        });
        EXPECT_EQ(arena.allocs + arena.oversize - allocs0, 3u);
        EXPECT_EQ(calls, 0);
    });
    eq.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(countAtDone, 2);
    EXPECT_EQ(liveAtDone, live0 + 1);
    EXPECT_EQ(arena.live, live0);

    // An empty Task<T> runs on_done at once.
    spawn(Task<std::uint64_t>{}, [&]() { ++calls; });
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(arena.allocs + arena.oversize - allocs0, 3u);
    EXPECT_EQ(arena.live, live0);
}

TEST(Task, FramesComeFromArenaAndAreReused)
{
    // Coroutine frames allocate through FrameArena (task.hh promise
    // operator new). After a warm-up batch the second batch must be
    // served from the free lists: reuse count grows, slab footprint
    // does not, and no frame stays live after the queue drains.
    EventQueue eq;
    int count = 0;
    auto spawn64 = [&]() {
        for (int i = 0; i < 64; ++i)
            spawn(delayTwice(1, count));
    };
    eq.schedule(0, spawn64);
    eq.run();
    const FrameArena::Stats s1 = FrameArena::stats();
    EXPECT_GE(s1.allocs, 64u);
    eq.schedule(0, spawn64);
    eq.run();
    const FrameArena::Stats s2 = FrameArena::stats();
    EXPECT_EQ(count, 256);
    EXPECT_GE(s2.reuses - s1.reuses, 64u);
    EXPECT_EQ(s2.slabBytes, s1.slabBytes);
    EXPECT_EQ(s2.live, s1.live);
}

TEST(Task, DelayOutsideAnEventDies)
{
    // A coroutine started with no event running has no queue to resume
    // on: its first wait panics by name.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    int count = 0;
    EXPECT_DEATH(spawn(delayTwice(1, count)), "outside an event");
}

TEST(ExecCtx, ClockReadsBelongToTheRunningEvent)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(ctxNow(), "outside an event");
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(7, [&seen]() { seen = ctxNow(); });
    eq.runUntil(10);
    EXPECT_EQ(seen, 7u);
    // Every run loop clears the context on return.
    EXPECT_DEATH(ctxNow(), "outside an event");
    eq.schedule(2, []() {});
    eq.runThrough(20);
    EXPECT_DEATH(ctxNow(), "outside an event");
    eq.schedule(1, []() {});
    eq.run();
    EXPECT_DEATH(ctxNow(), "outside an event");
}

namespace
{

Task<>
acquireHold(Semaphore &sem, Tick hold, int &active, int &max_active)
{
    co_await sem.acquire();
    ++active;
    max_active = std::max(max_active, active);
    co_await Delay{hold};
    --active;
    sem.release();
}

} // namespace

TEST(Semaphore, BoundsConcurrency)
{
    EventQueue eq;
    Semaphore sem(2);
    int active = 0, max_active = 0;
    eq.schedule(0, [&]() {
        for (int i = 0; i < 8; ++i)
            spawn(acquireHold(sem, 10, active, max_active));
    });
    eq.run();
    EXPECT_EQ(active, 0);
    EXPECT_EQ(max_active, 2);
    EXPECT_EQ(eq.now(), 40u);
}

namespace
{

Task<>
acquireFlag(Semaphore &sem, bool &got)
{
    co_await sem.acquire();
    got = true;
}

} // namespace

TEST(Semaphore, HandoffOutsideAnEventDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    Semaphore sem(1);
    bool first = false, second = false;
    eq.schedule(0, [&]() {
        spawn(acquireFlag(sem, first));
        spawn(acquireFlag(sem, second));
    });
    eq.run();
    ASSERT_TRUE(first);
    ASSERT_FALSE(second);
    // Handing the slot to the waiter schedules its resume.
    EXPECT_DEATH(sem.release(), "outside an event");
    eq.schedule(0, [&sem]() { sem.release(); });
    eq.run();
    EXPECT_TRUE(second);
}

namespace
{

Task<>
joinUser(EventQueue &eq, bool &flag)
{
    Join join;
    for (int i = 0; i < 4; ++i) {
        join.add();
        eq.schedule(10 + i, [&join]() { join.done(); });
    }
    co_await join.wait();
    flag = true;
}

} // namespace

TEST(Join, WaitsForAll)
{
    EventQueue eq;
    bool flag = false;
    spawn(joinUser(eq, flag));
    eq.run();
    EXPECT_TRUE(flag);
    EXPECT_EQ(eq.now(), 13u);
}

namespace
{

Task<>
waitOn(Join &join, bool &resumed)
{
    co_await join.wait();
    resumed = true;
}

} // namespace

TEST(Join, DoneOutsideAnEventDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    Join join;
    bool resumed = false;
    join.add();
    eq.schedule(0, [&]() { spawn(waitOn(join, resumed)); });
    eq.run();
    ASSERT_FALSE(resumed);
    // The last done() schedules the waiter's resume.
    EXPECT_DEATH(join.done(), "outside an event");
    eq.schedule(0, [&join]() { join.done(); });
    eq.run();
    EXPECT_TRUE(resumed);
}

namespace
{

/** Takes @p line at tick @p arrive, logs @p id, holds it for @p hold. */
Task<>
lockHold(LineLockTable &locks, Addr line, Tick arrive, Tick hold, int id,
         std::vector<std::pair<int, Tick>> &log)
{
    co_await Delay{arrive};
    co_await locks.acquire(line);
    log.emplace_back(id, ctxNow());
    co_await Delay{hold};
    locks.release(line);
}

/** Takes @p line and records @p id as its owner once granted. */
Task<>
lockTake(LineLockTable &locks, Addr line, int id, std::map<Addr, int> &owner)
{
    co_await locks.acquire(line);
    owner[line] = id;
}

} // namespace

TEST(LineLockTable, WaitersAcquireInArrivalOrder)
{
    EventQueue eq;
    LineLockTable locks;
    std::vector<std::pair<int, Tick>> log;
    // Holder 0 takes the line at tick 0; waiters arrive as 3, 1, 2.
    eq.schedule(0, [&]() {
        spawn(lockHold(locks, 0x1000, 0, 10, 0, log));
        spawn(lockHold(locks, 0x1000, 3, 10, 1, log));
        spawn(lockHold(locks, 0x1000, 4, 10, 2, log));
        spawn(lockHold(locks, 0x1000, 2, 10, 3, log));
    });
    eq.run();
    const std::vector<std::pair<int, Tick>> want = {
        {0, 0}, {3, 10}, {1, 20}, {2, 30}};
    EXPECT_EQ(log, want);
    EXPECT_FALSE(locks.held(0x1000));
}

TEST(LineLockTable, HeldAcrossHandoffsUntilLastRelease)
{
    EventQueue eq;
    LineLockTable locks;
    std::map<Addr, int> owner;
    eq.schedule(0, [&]() {
        spawn(lockTake(locks, 0x40, 1, owner));
        spawn(lockTake(locks, 0x40, 2, owner));
        spawn(lockTake(locks, 0x40, 3, owner));
    });
    eq.run();
    EXPECT_EQ(owner[0x40], 1);
    EXPECT_FALSE(locks.held(0x80));
    for (int next = 2; next <= 3; ++next) {
        eq.schedule(0, [&]() {
            locks.release(0x40);
            // Handed off, not dropped: held before the waiter even runs.
            EXPECT_TRUE(locks.held(0x40));
        });
        eq.run();
        EXPECT_EQ(owner[0x40], next);
        EXPECT_TRUE(locks.held(0x40));
    }
    locks.release(0x40);
    EXPECT_FALSE(locks.held(0x40));
}

TEST(LineLockTable, ReleasingUnheldLineDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    LineLockTable locks;
    EXPECT_DEATH(locks.release(0x40), "releasing unheld lock 0x40");
    std::map<Addr, int> owner;
    spawn(lockTake(locks, 0x40, 1, owner));
    eq.run();
    locks.release(0x40);
    EXPECT_DEATH(locks.release(0x40), "releasing unheld lock 0x40");
}

TEST(LineLockTable, HandoffOutsideAnEventDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    LineLockTable locks;
    std::map<Addr, int> owner;
    eq.schedule(0, [&]() {
        spawn(lockTake(locks, 0x40, 1, owner));
        spawn(lockTake(locks, 0x40, 2, owner));
    });
    eq.run();
    ASSERT_EQ(owner[0x40], 1);
    // Handing the line to the waiter schedules its resume.
    EXPECT_DEATH(locks.release(0x40), "outside an event");
    eq.schedule(0, [&locks]() { locks.release(0x40); });
    eq.run();
    EXPECT_EQ(owner[0x40], 2);
}

TEST(LineLockTable, RandomOpsOnCollidingLinesMatchReferenceModel)
{
    // Lines that all hash to two neighbouring home slots of the initial
    // table: long probe chains, so releases exercise backward-shift
    // deletes, and the table must grow while they cluster.
    std::vector<Addr> lines;
    const unsigned log2_initial =
        std::countr_zero(AddrSet::initialCapacity);
    for (Addr line = 0; lines.size() < 48; line += lineBytes) {
        if (AddrSet::home(line, log2_initial) <= 1)
            lines.push_back(line);
    }

    EventQueue eq;
    LineLockTable locks;
    std::map<Addr, int> owner;
    // Reference: held line -> (owner, FIFO of waiting ids).
    std::map<Addr, std::pair<int, std::deque<int>>> ref;
    Rng rng(16);
    std::size_t max_held = 0;
    int next_id = 0;
    for (int step = 0; step < 4000; ++step) {
        // Acquire-heavy first half (grow), release-heavy second half.
        const std::uint64_t acquire_pct = step < 2000 ? 65 : 35;
        if (ref.empty() || rng.below(100) < acquire_pct) {
            const Addr line = lines[rng.below(lines.size())];
            const int id = next_id++;
            eq.schedule(0, [&, line, id]() {
                spawn(lockTake(locks, line, id, owner));
            });
            auto [it, fresh] = ref.try_emplace(line);
            if (fresh)
                it->second.first = id;
            else
                it->second.second.push_back(id);
        } else {
            auto it = ref.begin();
            std::advance(it, rng.below(ref.size()));
            const Addr line = it->first;
            eq.schedule(0, [&locks, line]() { locks.release(line); });
            if (it->second.second.empty()) {
                ref.erase(it);
            } else {
                it->second.first = it->second.second.front();
                it->second.second.pop_front();
            }
        }
        eq.run();
        max_held = std::max(max_held, ref.size());
        for (Addr line : lines) {
            auto it = ref.find(line);
            ASSERT_EQ(locks.held(line), it != ref.end())
                << "step " << step << " line " << line;
            if (it != ref.end()) {
                ASSERT_EQ(owner[line], it->second.first)
                    << "step " << step << " line " << line;
            }
        }
    }
    // More than half the initial capacity held at once: the table grew.
    EXPECT_GT(max_held, AddrSet::initialCapacity / 2);
}

TEST(Rng, DeterministicAndUniform)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());

    Rng r(7);
    std::vector<int> buckets(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++buckets[r.below(10)];
    for (int v : buckets) {
        EXPECT_GT(v, n / 10 * 0.9);
        EXPECT_LT(v, n / 10 * 1.1);
    }
}

TEST(Zipfian, SkewsTowardHotItems)
{
    Rng r(3);
    ZipfianGenerator zipf(1024, 0.99);
    std::uint64_t hot = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        if (zipf(r) < 16)
            ++hot;
    }
    // With theta=0.99 the top 16 of 1024 items draw a large fraction.
    EXPECT_GT(hot, n / 4u);
    // But not everything.
    EXPECT_LT(hot, n * 9u / 10u);
}

TEST(IntervalMap, InsertFindEraseAndOverlap)
{
    IntervalMap<int> map;
    EXPECT_TRUE(map.insert(100, 50, 1));
    EXPECT_TRUE(map.insert(200, 10, 2));
    EXPECT_FALSE(map.insert(140, 20, 3)); // overlaps [100,150)
    EXPECT_FALSE(map.insert(90, 11, 4));  // overlaps start
    EXPECT_TRUE(map.insert(150, 50, 5));  // adjacent ok

    ASSERT_NE(map.find(100), nullptr);
    EXPECT_EQ(map.find(100)->value, 1);
    EXPECT_EQ(map.find(149)->value, 1);
    EXPECT_EQ(map.find(150)->value, 5);
    EXPECT_EQ(map.find(99), nullptr);
    EXPECT_EQ(map.find(210), nullptr);

    EXPECT_TRUE(map.erase(100));
    EXPECT_EQ(map.find(120), nullptr);
    EXPECT_FALSE(map.erase(100));
}

TEST(Stats, CountersAndPatterns)
{
    StatsRegistry stats;
    stats.counter("a.hits") += 3;
    stats.counter("b.hits") += 4;
    stats.counter("a.misses")++;
    EXPECT_DOUBLE_EQ(stats.get("a.hits"), 3);
    EXPECT_DOUBLE_EQ(stats.sumMatching("*.hits"), 7);
    EXPECT_DOUBLE_EQ(stats.sumMatching("a.*"), 4);
    stats.reset();
    EXPECT_DOUBLE_EQ(stats.get("a.hits"), 0);
}

TEST(Stats, HistogramMoments)
{
    StatsRegistry stats;
    auto &h = stats.histogram("lat", 8, 10);
    h.sample(5);
    h.sample(15);
    h.sample(1000); // overflow bucket
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), (5 + 15 + 1000) / 3.0);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
}
