/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are totally ordered by (tick, stream key), so a simulation
 * with the same inputs and seeds always replays identically. Everything
 * that takes simulated time in tako-sim — cache lookups, NoC hops, DRAM
 * accesses, engine callbacks, core compute — is an event chain on the
 * queue of the shard domain that owns the tile (one queue when the run
 * is not split; see shard.hh).
 *
 * Internally this is a two-level calendar queue over pooled EventNodes
 * (see event_pool.hh) rather than a binary heap of std::function entries:
 *
 *  - A wheel of kWheelSlots power-of-two buckets covers the near window
 *    [base_, base_ + kWheelSlots). An event at tick T lives in slot
 *    (T & kWheelMask), in one lane ordered by key. Keys sort by stream
 *    first, so a lane is one run of events per present stream; it keeps
 *    a bitmap of those streams and each run's last node, and an insert
 *    links in after the last node of the highest present stream <= its
 *    own. Schedule and pop are O(1) — no sift, no list walk, no
 *    per-event allocation.
 *  - Events beyond the window go to a small overflow min-heap ordered by
 *    (tick, seq). Whenever base_ advances, every overflow event that now
 *    falls inside the window migrates into the wheel *before* any
 *    callback at the new time runs.
 *
 * Why that preserves the exact total order: (1) wheel events are always
 * < base_ + kWheelSlots and overflow events >= base_ + kWheelSlots, so
 * the global minimum is in the wheel whenever the wheel is non-empty;
 * (2) the heap pops in (tick, seq) order, so migration reaches each
 * lane in seq order; (3) a callback scheduling directly into the
 * wheel at tick T can only run after every overflow event at T has
 * already migrated (eager migration); (4) so each stream's keys reach a
 * lane in ascending order — a local schedule draws its key at insert,
 * mail keeps send order, and migration keeps key order — which is what
 * makes "after the last node of the highest present stream <= mine"
 * the key-order position (a key below its own stream's last node
 * panics); (5) two different ticks in the window cannot collide in a
 * slot because the window spans exactly one wheel period. See
 * DESIGN.md "Simulation kernel internals".
 */

#ifndef TAKO_SIM_EVENT_QUEUE_HH
#define TAKO_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/event_pool.hh"
#include "sim/exec_ctx.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

/**
 * An event's place in the kernel's total order: tick, then the
 * partition-invariant key (StreamKeySource). The queue and the
 * observation records (record.hh) both order by this one comparison.
 */
struct EventOrder
{
    Tick tick;
    std::uint64_t key;

    constexpr bool
    operator<(const EventOrder &o) const
    {
        if (tick != o.tick)
            return tick < o.tick;
        return key < o.key;
    }
};

/**
 * Partition-invariant tie-break keys.
 *
 * Every event is keyed by (source stream, per-stream sequence): each
 * logical stream (tile) hands out its own sequence numbers in its own
 * execution order, which is a pure function of simulation state — not
 * of which other streams' events interleave with it, and therefore not
 * of how the model is partitioned into domains. Sorting same-tick events
 * by that packed key yields the identical total order at every shard
 * count (DESIGN.md "Sharded execution"). A standalone queue keys
 * everything on stream 0 of its own table, which is plain FIFO order.
 *
 * Each stream's cell is only ever touched by the one domain that owns
 * the stream's tile, so the shared table needs no atomics — just cache-
 * line padding so neighboring owners don't false-share.
 */
class StreamKeySource
{
  public:
    /** Low bits hold the per-stream sequence; high bits the stream. */
    static constexpr unsigned kSeqBits = 44;

    explicit StreamKeySource(std::size_t streams) : cells_(streams) {}

    std::uint64_t
    next(std::uint32_t stream)
    {
        // 2^44 events per stream outlasts any realistic run; the pack
        // would need a widening long before the counter wraps.
        return (std::uint64_t{stream} << kSeqBits) |
               cells_[stream].value++;
    }

    std::size_t streams() const { return cells_.size(); }

  private:
    std::vector<Padded<std::uint64_t>> cells_;
};

class EventQueue
{
  public:
    EventQueue()
        : streams_(&ownKeys_), laneStreams_(1), lastOf_(kWheelSlots)
    {
    }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue() { dropAll(); }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename F>
    void
    schedule(Tick delta, F &&fn)
    {
        scheduleAbs(now_ + delta, std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute tick @p when (must not be in the past). */
    template <typename F>
    void
    scheduleAbs(Tick when, F &&fn)
    {
        // Key by the scheduling context's stream; the continuation keeps
        // executing at the same place.
        const std::uint32_t s = detail::execCtx.stream;
        scheduleKeyed(when, std::forward<F>(fn), streams_->next(s), s);
    }

    /**
     * Schedule with an explicit, already-assigned tie-break key and
     * execution stream. Used by the shard router: cross-domain events
     * are keyed at the *sender* (whose stream counter is race-free
     * there) and delivered here at a barrier, and tile-to-tile posts
     * set the destination tile's stream as the execution context.
     */
    template <typename F>
    void
    scheduleKeyed(Tick when, F &&fn, std::uint64_t key,
                  std::uint32_t execStream)
    {
        panic_if(when < now_, "scheduling event in the past (%llu < %llu)",
                 (unsigned long long)when, (unsigned long long)now_);
        EventNode *n = pool_.alloc();
        n->when = when;
        n->seq = key;
        n->execStream = execStream;
        n->emplace(std::forward<F>(fn));
        insert(n);
    }

    /** Most streams a key table may have: one lane bitmap bit each. */
    static constexpr std::size_t kMaxStreams = 64;

    /**
     * Install the key table shared by every domain of a decomposed model
     * in place of the queue's own one-stream table, so streams keep one
     * sequence each wherever their events execute. Sizes the lanes'
     * per-stream last-node table, so no event may be pending.
     */
    void
    setStreamKeys(StreamKeySource &streams)
    {
        panic_if(!empty(), "stream keys installed with %zu events pending",
                 pending());
        panic_if(streams.streams() > kMaxStreams,
                 "%zu key streams exceed the event lanes' %zu",
                 streams.streams(), kMaxStreams);
        streams_ = &streams;
        laneStreams_ = static_cast<std::uint32_t>(streams.streams());
        lastOf_.assign(kWheelSlots * laneStreams_, nullptr);
    }

    /** Shard-domain index published in ExecCtx while events run. */
    void setDomainIndex(std::uint32_t d) { domainIndex_ = d; }
    std::uint32_t domainIndex() const { return domainIndex_; }

    /** Number of pending events. */
    std::size_t pending() const { return wheelCount_ + overflow_.size(); }

    bool empty() const { return wheelCount_ == 0 && overflow_.empty(); }

    /** No time limit: step() runs whatever event is next. */
    static constexpr Tick kNoLimit = ~Tick{0};

    /**
     * Pop and run the next event if it is due at or before @p limit.
     * Returns false, running nothing, if the queue is empty or its next
     * event is later than @p limit.
     */
    bool
    step(Tick limit = kNoLimit)
    {
        EventNode *e = popNext(limit);
        if (!e)
            return false;
        if (e->when >= hookWatermark_) [[unlikely]]
            fireAdvanceHook(e->when);
        now_ = e->when;
        // Migrate overflow events into the wheel *before* the callback
        // runs: anything it schedules at a near tick must land behind
        // every already-pending event at that tick.
        if (now_ > base_)
            advanceBase(now_);
        ++fired_;
        // Publish where this event executes so model code that migrates
        // between tiles can find its current queue/stream/domain, and
        // where it sits in the total order (observation records).
        detail::execCtx.queue = this;
        detail::execCtx.domain = domainIndex_;
        detail::execCtx.stream = e->execStream;
        detail::execCtx.key = e->seq;
        e->run();
        pool_.release(e);
        return true;
    }

    /** Run until the queue drains. */
    void
    run()
    {
        while (step()) {}
        clearExecCtx();
    }

    /**
     * Run until the queue drains or simulated time would exceed @p limit.
     * Events at exactly @p limit still run. Time always advances to
     * @p limit: the full interval was simulated even when events remain
     * pending past it (the next one is strictly later than @p limit).
     */
    void
    runUntil(Tick limit)
    {
        while (step(limit)) {}
        if (now_ < limit) {
            if (limit >= hookWatermark_) [[unlikely]]
                fireAdvanceHook(limit);
            now_ = limit;
            if (limit > base_)
                advanceBase(limit);
        }
    }

    /**
     * Run every event with when <= @p limit, leaving time at the last
     * executed event instead of forcing it to @p limit. This is the
     * window primitive for sharded execution: a shard simulates its
     * quantum without disturbing final-time-derived statistics, so the
     * clock matches at every shard count bit for bit.
     */
    void
    runThrough(Tick limit)
    {
        while (step(limit)) {}
    }

    /** Earliest pending event time, if any (sharded-run scheduling). */
    bool
    nextEventTime(Tick &out) const
    {
        return peekWhen(out);
    }

    /**
     * Observer invoked when simulated time is about to advance to or past
     * @p watermark, with the tick being advanced to (events at that tick
     * have not yet run). The hook returns the next tick it wants to see;
     * the queue stays silent until time crosses it. A System's observer
     * list rides it (observer.hh) to sample counters at fixed intervals
     * without injecting events that would keep the queue from draining.
     * Costs one integer compare per event when unset (or between
     * watermarks) — never a std::function touch. A null hook clears it.
     */
    void
    setAdvanceHook(std::function<Tick(Tick)> hook, Tick watermark)
    {
        advanceHook_ = std::move(hook);
        hookWatermark_ = advanceHook_ ? watermark : kNoWatermark;
    }

    /**
     * Reset time and drop all pending events. Only valid between
     * independent simulations.
     */
    void
    reset()
    {
        dropAll();
        now_ = 0;
        base_ = 0;
        fired_ = 0;
    }

    /** Events executed since construction (or the last reset()). */
    std::uint64_t eventsFired() const { return fired_; }

    /**
     * Leaving an execution loop invalidates the published context: the
     * next consumer may be a different queue's loop (replica lanes, the
     * sharded executor's mail delivery) or plain test code completing
     * primitives inline, which must fall back to their stored queue.
     */
    static void
    clearExecCtx()
    {
        detail::execCtx = ExecCtx{};
    }

    /** Pending events currently parked in the far-future overflow heap. */
    std::size_t overflowPending() const { return overflow_.size(); }

    /** Node pool introspection (tests, perf tooling). */
    const EventPool &pool() const { return pool_; }

  private:
    static constexpr Tick kNoWatermark = ~Tick{0};

    static constexpr unsigned kWheelBits = 8;
    static constexpr std::size_t kWheelSlots = std::size_t{1} << kWheelBits;
    static constexpr Tick kWheelMask = Tick{kWheelSlots - 1};
    static constexpr std::size_t kBitmapWords = kWheelSlots / 64;

    /**
     * One wheel slot: the events of one tick in key order, i.e. one run
     * per present stream in stream order. Run ends live in lastOf_.
     */
    struct Lane
    {
        EventNode *head = nullptr;
        std::uint64_t streams = 0; ///< bit s: stream s has events here
    };

    /** Min-heap order for the overflow heap: full (tick, seq). */
    struct FarGreater
    {
        bool
        operator()(const EventNode *a, const EventNode *b) const
        {
            return EventOrder{b->when, b->seq} < EventOrder{a->when, a->seq};
        }
    };

    /**
     * Out-of-line on purpose: keeps the call (which clobbers caller-saved
     * registers) off step()'s hot path, so the watermark miss costs one
     * predictable compare.
     */
    [[gnu::noinline, gnu::cold]] void
    fireAdvanceHook(Tick to)
    {
        hookWatermark_ = advanceHook_(to);
    }

    void
    insert(EventNode *n)
    {
        // Unsigned wrap makes this also reject when < base_, which
        // cannot happen: base_ <= now_ whenever callers can schedule.
        if (n->when - base_ < kWheelSlots)
            wheelAppend(n);
        else
            overflow_.push(n);
    }

    void
    wheelAppend(EventNode *n)
    {
        const std::size_t idx = static_cast<std::size_t>(n->when & kWheelMask);
        Lane &lane = wheel_[idx];
        const std::uint64_t s = n->seq >> StreamKeySource::kSeqBits;
        panic_if(s >= laneStreams_, "event key %#llx from stream %llu of %u",
                 (unsigned long long)n->seq, (unsigned long long)s,
                 laneStreams_);
        EventNode **last = &lastOf_[idx * laneStreams_];
        // The greatest key <= n's ends the run of the highest present
        // stream <= s: keys sort by stream first, and each stream's keys
        // reach a lane in ascending order (see the file comment).
        const std::uint64_t upTo =
            lane.streams & (~std::uint64_t{0} >> (63 - s));
        if (upTo) {
            EventNode *prev = last[std::bit_width(upTo) - 1];
            panic_if(n->seq < prev->seq,
                     "event key %#llx reached tick %llu after its stream's "
                     "key %#llx",
                     (unsigned long long)n->seq,
                     (unsigned long long)n->when,
                     (unsigned long long)prev->seq);
            n->next = prev->next;
            prev->next = n;
        } else {
            n->next = lane.head;
            lane.head = n;
        }
        lane.streams |= std::uint64_t{1} << s;
        last[s] = n;
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        ++wheelCount_;
    }

    /**
     * Advance the window start to @p to (<= the minimum pending tick) and
     * eagerly migrate every overflow event that now fits the window. The
     * heap pops in total order, so lanes fill in seq order.
     */
    void
    advanceBase(Tick to)
    {
        base_ = to;
        while (!overflow_.empty() &&
               overflow_.top()->when - base_ < kWheelSlots) {
            EventNode *n = overflow_.top();
            overflow_.pop();
            wheelAppend(n);
        }
    }

    /** Tick a wheel slot maps to under the current window. */
    Tick
    slotTick(std::size_t idx) const
    {
        return base_ +
               ((Tick{idx} - (base_ & kWheelMask)) & kWheelMask);
    }

    /**
     * First occupied slot in circular order from base_ — which is
     * minimum-tick order, since the window spans one wheel period.
     * Only valid when wheelCount_ > 0.
     */
    std::size_t
    firstOccupied() const
    {
        const std::size_t start = static_cast<std::size_t>(base_ & kWheelMask);
        const std::size_t sw = start >> 6;
        std::uint64_t word = occupied_[sw] & (~std::uint64_t{0} << (start & 63));
        if (word)
            return (sw << 6) + std::countr_zero(word);
        for (std::size_t w = sw + 1; w < kBitmapWords; ++w)
            if (occupied_[w])
                return (w << 6) + std::countr_zero(occupied_[w]);
        for (std::size_t w = 0; w < sw; ++w)
            if (occupied_[w])
                return (w << 6) + std::countr_zero(occupied_[w]);
        word = occupied_[sw] & ~(~std::uint64_t{0} << (start & 63));
        panic_if(!word, "event wheel bitmap out of sync");
        return (sw << 6) + std::countr_zero(word);
    }

    /** Unlink the minimum pending event if it is due at or before
     *  @p limit; the window never moves past @p limit. */
    EventNode *
    popNext(Tick limit)
    {
        if (wheelCount_ == 0) {
            if (overflow_.empty() || overflow_.top()->when > limit)
                return nullptr;
            // Wheel drained: rebase straight to the heap minimum. This
            // migrates at least the top, in total order.
            advanceBase(overflow_.top()->when);
        }
        const std::size_t idx = firstOccupied();
        if (slotTick(idx) > limit)
            return nullptr;
        Lane &lane = wheel_[idx];
        EventNode *n = lane.head;
        panic_if(!n, "occupied wheel slot with an empty lane");
        lane.head = n->next;
        if (!lane.head) {
            lane.streams = 0;
            occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
        } else if ((lane.head->seq ^ n->seq) >> StreamKeySource::kSeqBits) {
            // n ended its stream's run.
            lane.streams &= ~(std::uint64_t{1}
                              << (n->seq >> StreamKeySource::kSeqBits));
        }
        --wheelCount_;
        return n;
    }

    /** Minimum pending tick, if any. */
    bool
    peekWhen(Tick &out) const
    {
        if (wheelCount_ > 0) {
            out = slotTick(firstOccupied());
            return true;
        }
        if (!overflow_.empty()) {
            out = overflow_.top()->when;
            return true;
        }
        return false;
    }

    /** Destroy every pending callable and recycle the nodes. */
    void
    dropAll()
    {
        for (Lane &lane : wheel_) {
            for (EventNode *n = lane.head; n;) {
                EventNode *next = n->next;
                n->drop();
                pool_.release(n);
                n = next;
            }
            lane = Lane{};
        }
        occupied_.fill(0);
        wheelCount_ = 0;
        while (!overflow_.empty()) {
            EventNode *n = overflow_.top();
            overflow_.pop();
            n->drop();
            pool_.release(n);
        }
    }

    std::array<Lane, kWheelSlots> wheel_{};
    std::array<std::uint64_t, kBitmapWords> occupied_{};
    std::size_t wheelCount_ = 0;
    std::priority_queue<EventNode *, std::vector<EventNode *>, FarGreater>
        overflow_;
    EventPool pool_;

    /** Window start: wheel covers [base_, base_ + kWheelSlots). */
    Tick base_ = 0;
    Tick now_ = 0;
    std::uint64_t fired_ = 0;
    /** Key table of a standalone queue: stream 0 only. */
    StreamKeySource ownKeys_{1};
    /** Key table in use: ownKeys_ or the decomposed model's shared one. */
    StreamKeySource *streams_;
    /** streams_'s width: lastOf_ holds laneStreams_ entries per lane. */
    std::uint32_t laneStreams_;
    /** Last node of each present stream's run, lane-major; an entry is
     *  meaningful only while its bit is set in Lane::streams. */
    std::vector<EventNode *> lastOf_;
    /** Shard domain this queue belongs to (ExecCtx, stats lanes). */
    std::uint32_t domainIndex_ = 0;
    /** Next tick the advance hook wants; kNoWatermark = hook off. */
    Tick hookWatermark_ = kNoWatermark;
    std::function<Tick(Tick)> advanceHook_;
};

/**
 * Queue to schedule follow-up work on from model code that may be
 * executing away from home. Transactions migrate across tiles, so the
 * right queue is wherever the current event is executing; outside any
 * event — calls made before or after a run, test code completing
 * primitives inline — it is the component's own stored queue.
 */
inline EventQueue &
homeQueue(EventQueue &fallback)
{
    EventQueue *q = detail::execCtx.queue;
    return q ? *q : fallback;
}

/** Simulated time at the current execution context (see homeQueue). */
inline Tick
ctxNow(const EventQueue &fallback)
{
    const EventQueue *q = detail::execCtx.queue;
    return q ? q->now() : fallback.now();
}

} // namespace tako

#endif // TAKO_SIM_EVENT_QUEUE_HH
