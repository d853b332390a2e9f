/**
 * @file
 * Coroutine-lifetime stress tests. Built like any other test, but their
 * real job is under ASan/TSan (ctest -L sanfast): they hammer the
 * patterns takolint's L1/L2 rules exist for — frames completing out of
 * order, Join::completion() callables outliving loop iterations, frame
 * arena recycling under churn — so a lifetime regression turns into a
 * sanitizer report instead of a heisenbug in the quick suite.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/task.hh"

using namespace tako;

namespace
{

Task<>
delayed(Tick d, int *out)
{
    co_await Delay{d};
    ++*out;
}

/** A chain of nested awaits, each with its own frame. */
Task<>
chain(int depth, int *out)
{
    if (depth > 0)
        co_await chain(depth - 1, out);
    co_await Delay{1};
    ++*out;
}

} // namespace

TEST(Lifetime, JoinCompletionOutlivesLoopIteration)
{
    // The historical bug shape: completions created in a loop, run long
    // after the loop variable and iteration scope are gone. The Join
    // and counters live in the outer frame, which suspends on wait().
    EventQueue eq;
    int done = 0;
    bool finished = false;
    eq.schedule(0, [d = &done, fin = &finished]() {
        spawn(
            [](int *d, bool *fin) -> Task<> {
                Join join;
                for (int i = 0; i < 64; ++i) {
                    join.add();
                    // Deliberately scattered completion ticks so frames
                    // retire out of spawn order.
                    spawn(delayed(1 + (i * 7) % 13, d), join.completion());
                }
                co_await join.wait();
                *fin = true;
            }(d, fin),
            {});
    });
    eq.run();
    EXPECT_TRUE(finished);
    EXPECT_EQ(done, 64);
}

TEST(Lifetime, NestedJoinsRecycleFramesUnderChurn)
{
    // Waves of spawn/complete cycles reuse arena frames and pooled
    // event nodes thousands of times; ASan catches any stale frame
    // access, TSan any unsynchronized reuse.
    EventQueue eq;
    int done = 0;
    for (int wave = 0; wave < 50; ++wave) {
        eq.schedule(0, [d = &done]() {
            spawn(
                [](int *d) -> Task<> {
                    Join join;
                    for (int i = 0; i < 16; ++i) {
                        join.add();
                        spawn(chain(i % 4, d), join.completion());
                    }
                    co_await join.wait();
                }(d),
                {});
        });
        eq.run();
    }
    // Each chain(depth) increments once per frame: depth + 1 times.
    EXPECT_EQ(done, 50 * (16 + 4 * (0 + 1 + 2 + 3)));
}

TEST(Lifetime, CompletionAfterOwnerFrameWouldBeGoneIsSafe)
{
    // spawn()'s on_done fires from the *last* completing frame; make
    // sure a completion scheduled at the far future still finds a live
    // Join (the waiter frame keeps it alive across the whole span).
    EventQueue eq;
    int order = 0, first = 0, last = 0;
    bool finished = false;
    eq.schedule(0, [ord = &order, f = &first, l = &last,
                    fin = &finished]() {
        spawn(
            [](int *ord, int *f, int *l, bool *fin) -> Task<> {
                Join join;
                join.add(2);
                spawn(delayed(1, f), join.completion());
                spawn(delayed(10000, l), join.completion());
                co_await join.wait();
                *fin = true;
                *ord = *f + *l;
            }(ord, f, l, fin),
            {});
    });
    eq.run();
    EXPECT_TRUE(finished);
    EXPECT_EQ(order, 2);
    EXPECT_GE(eq.now(), 10000u);
}

TEST(Lifetime, ValueCapturedEventsSurviveScopeExit)
{
    // The L1-clean pattern at the event layer: everything the deferred
    // callable needs is captured by value (pointers to stable storage).
    EventQueue eq;
    auto counters = std::make_unique<std::vector<std::uint64_t>>(8, 0);
    {
        // Scope with locals that die before the events run.
        for (std::size_t i = 0; i < counters->size(); ++i) {
            std::uint64_t *slot = &(*counters)[i];
            eq.schedule(100 + static_cast<Tick>(i),
                        [slot]() { ++*slot; });
        }
    }
    eq.run();
    for (auto v : *counters)
        EXPECT_EQ(v, 1u);
}
