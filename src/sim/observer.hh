/**
 * @file
 * The one observer interface. A System borrows a list of observers
 * (SystemConfig::observers); each declares the record kinds it reads,
 * a watermark per shard domain, or both. At the end of its constructor
 * the System attaches each one, subscribes it to its Recorder and
 * installs one advance hook per domain queue that dispatches to the
 * watermark observers, so any number of them share a queue's single
 * hook; after the run it calls each one's finish(). DESIGN.md §4.5.
 */

#ifndef TAKO_SIM_OBSERVER_HH
#define TAKO_SIM_OBSERVER_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/record.hh"

namespace tako
{

class System;

class Observer
{
  public:
    /** A watermark that never comes: the observer skips the domain. */
    static constexpr Tick kNever = ~Tick{0};

    // A System holds each observer's address: never copied or moved.
    // An observer watches one System; attach sizes it for that one.
    Observer() = default;
    Observer(const Observer &) = delete;
    Observer &operator=(const Observer &) = delete;
    virtual ~Observer() = default;

    /** End of the System's constructor: every counter is registered,
     *  and no record kind or watermark has been read yet. */
    virtual void attach(System &) {}

    /** Record kinds record() receives, in released (tick, key) order. */
    virtual std::uint32_t recordKinds() const { return 0; }
    virtual void record(const Record &) {}

    /** The first tick of shard domain @p d's clock to report. */
    virtual Tick watermark(unsigned /*d*/) const { return kNever; }

    /** Domain @p d's clock is about to reach @p to, at or past this
     *  observer's watermark there, and no event at @p to has run. Runs
     *  on d's worker, so it may touch only d's state. Returns the next
     *  watermark in d. */
    virtual Tick advance(unsigned /*d*/, Tick /*to*/) { return kNever; }

    /** After the run, before the stat lanes merge; @p end is the run's
     *  globally-last tick. */
    virtual void finish(System &, Tick /*end*/) {}
};

/**
 * Install one advance hook on each of @p queues (domain d = index d)
 * that calls advance() on every observer whose watermark in d time is
 * crossing, and stays silent until the smallest next one. A queue no
 * observer watches gets no hook, so its per-event cost stays one
 * always-false compare.
 */
inline void
installWatermarks(const std::vector<Observer *> &observers,
                  const std::vector<EventQueue *> &queues)
{
    for (unsigned d = 0; d < queues.size(); ++d) {
        // The domain's watchers and their next watermarks, owned by the
        // hook and touched only on the domain's worker.
        std::vector<std::pair<Observer *, Tick>> due;
        Tick first = Observer::kNever;
        for (Observer *o : observers) {
            if (const Tick wm = o->watermark(d); wm != Observer::kNever) {
                due.emplace_back(o, wm);
                first = std::min(first, wm);
            }
        }
        if (due.empty())
            continue;
        queues[d]->setAdvanceHook(
            [d, due = std::move(due)](Tick to) mutable {
                Tick next = Observer::kNever;
                for (auto &[o, wm] : due) {
                    if (wm <= to)
                        wm = o->advance(d, to);
                    next = std::min(next, wm);
                }
                return next;
            },
            first);
    }
}

} // namespace tako

#endif // TAKO_SIM_OBSERVER_HH
