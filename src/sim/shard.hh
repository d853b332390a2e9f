/**
 * @file
 * Conservative sharded execution for the deterministic event kernel.
 *
 * A ShardPlan partitions the tile mesh into column-contiguous shards
 * and derives the synchronization quantum from the static minimum
 * cross-shard NoC latency under XY routing: any message that leaves a
 * shard crosses at least one boundary link, which costs at least
 * routerDelay + linkDelay ticks. Every shard therefore simulates
 * windows of `quantum` ticks in lockstep — within a window no shard can
 * observe an event another shard produced in the same window, so each
 * shard's calendar queue runs free of locks.
 *
 * Cross-shard events travel through per-shard-pair SPSC mailboxes and
 * are drained only at quantum barriers, sorted into the receiving
 * queue by (tick, priority, stream key). Because the drained set and
 * its keys are functions of simulation state alone — never of
 * host-thread timing — every partition reproduces the same
 * (tick, priority, key) total order bit for bit (proof sketch in
 * DESIGN.md §4). One domain is the degenerate partition: no mailbox,
 * no extra thread, one free-running (solo) round after the first.
 *
 * The same lane machinery drives deterministic ensembles: runLanes()
 * executes independent jobs (e.g. seed-offset replicas) across a fixed
 * worker pool with a lane assignment that depends only on job index,
 * so merged results are identical at any lane count.
 */

#ifndef TAKO_SIM_SHARD_HH
#define TAKO_SIM_SHARD_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace tako
{

class Recorder;

/**
 * Static tile -> shard partition plus the conservative lookahead bound.
 * Columns are assigned contiguously so every boundary is a vertical cut
 * and the quantum derives from one E/W link crossing.
 */
struct ShardPlan
{
    unsigned shards = 1; ///< effective shard count (<= dimX)
    unsigned dimX = 1;
    unsigned dimY = 1;
    /** Conservative sync quantum: minimum ticks any cross-shard message
     *  spends in flight (routerDelay + linkDelay for one boundary
     *  link). Never zero. */
    Tick quantum = 1;
    std::vector<unsigned> columnShard; ///< dimX entries, non-decreasing
    unsigned boundaryLinks = 0; ///< directed E/W links crossing a cut

    /**
     * Partition a dimX x dimY mesh into @p shards column bands. The
     * request is clamped to [1, dimX]; a mesh cannot split finer than
     * its columns.
     */
    static ShardPlan build(unsigned dimX, unsigned dimY, Tick routerDelay,
                           Tick linkDelay, unsigned shards);

    unsigned
    shardOf(unsigned tile) const
    {
        return columnShard[tile % dimX];
    }
};

/**
 * Lock-free single-producer/single-consumer ring. One instance per
 * directed shard pair: only the source shard's worker pushes, only the
 * destination shard's worker pops, and pops happen exclusively at
 * quantum barriers (after every producer for the window has arrived),
 * so capacity bounds one window's traffic, not a whole run's.
 */
template <typename T>
class SpscMailbox
{
  public:
    explicit SpscMailbox(std::size_t capacity = 4096)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        ring_.resize(cap);
        mask_ = cap - 1;
    }

    /** Producer side. False = full (caller decides how to fail). */
    bool
    tryPush(T v)
    {
        const std::size_t t = tail_.load(std::memory_order_relaxed);
        if (t - head_.load(std::memory_order_acquire) > mask_)
            return false;
        ring_[t & mask_] = std::move(v);
        tail_.store(t + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side. False = empty. */
    bool
    tryPop(T &out)
    {
        const std::size_t h = head_.load(std::memory_order_relaxed);
        if (tail_.load(std::memory_order_acquire) == h)
            return false;
        out = std::move(ring_[h & mask_]);
        head_.store(h + 1, std::memory_order_release);
        return true;
    }

    bool
    empty() const
    {
        return tail_.load(std::memory_order_acquire) ==
               head_.load(std::memory_order_acquire);
    }

    std::size_t capacity() const { return mask_ + 1; }

  private:
    std::vector<T> ring_;
    std::size_t mask_ = 0;
    alignas(64) std::atomic<std::size_t> head_{0}; ///< consumer cursor
    alignas(64) std::atomic<std::size_t> tail_{0}; ///< producer cursor
};

/** One cross-shard event in flight. */
struct ShardEvent
{
    Tick when = 0;
    EventPriority priority = EventPriority::Default;
    /** Tie-break key: the sender's partition-invariant
     *  (stream, per-stream seq) pack (see StreamKeySource). */
    std::uint64_t key = 0;
    /** Stream published in ExecCtx while the delivered event runs. */
    std::uint32_t execStream = 0;
    std::function<void()> fn;

    EventOrder order() const
    {
        return {when, static_cast<int>(priority), key};
    }
};

/**
 * Runs N event-queue domains in lockstep quantum windows on a fixed
 * worker pool, draining cross-shard mailboxes only at barriers. The
 * result is bit-identical at any thread count (1..N): thread timing can
 * change when host work happens, never which events run in what order.
 *
 * Domains are borrowed, not owned; each must only ever be touched by
 * executor callbacks (or before run() / after it returns).
 */
class ShardedExecutor
{
  public:
    /**
     * @p domains one calendar queue per shard; @p quantum the plan's
     * conservative lookahead (>= 1); @p threads worker count, clamped
     * to [1, domains.size()], 0 = one per domain; @p recorder, if any,
     * has its per-domain records released in (tick, priority, key)
     * order below each safe horizon (see record.hh).
     */
    ShardedExecutor(std::vector<EventQueue *> domains, Tick quantum,
                    unsigned threads = 0, Recorder *recorder = nullptr);

    /** run() without a tick limit. */
    static constexpr Tick kNoLimit = ~Tick{0};

    /**
     * Post @p fn to shard @p dst at absolute tick @p when, with the
     * partition-invariant tie-break @p key (drawn from the sending
     * event's stream counter, see StreamKeySource) and the stream
     * @p execStream it executes at. Must be called from an event
     * executing on shard @p src, and @p when must be at least the
     * sending event's time plus the quantum — the receiver panics on
     * anything earlier (lookahead violation). src == dst schedules
     * directly on the shard's queue.
     */
    void sendKeyed(unsigned src, unsigned dst, Tick when,
                   EventPriority prio, std::uint64_t key,
                   std::uint32_t execStream, std::function<void()> fn);

    /**
     * Run every domain to quiescence (all queues and mailboxes empty),
     * or — with a @p limit — until no event at or before @p limit is
     * left anywhere; later events stay pending and every domain's clock
     * ends at @p limit (EventQueue::runUntil semantics). The calling
     * thread is worker 0, so a one-domain run spawns no thread; extra
     * workers join before this returns, and the caller's ExecCtx is
     * cleared.
     */
    void run(Tick limit = kNoLimit);

    /** Quantum rounds completed (diagnostics; valid after run()). */
    std::uint64_t rounds() const { return rounds_; }
    /** Cross-shard events delivered through mailboxes. */
    std::uint64_t
    crossShardEvents() const
    {
        return delivered_.load(std::memory_order_relaxed);
    }

    /**
     * Per-domain execution profile, valid after run(). Every field is a
     * pure function of simulation state (which events ran in which
     * lockstep window), so the whole struct is bit-identical at any
     * worker thread count — it feeds the deterministic shard.* stat
     * namespace. Each domain's entry is written only by the one worker
     * that owns the domain (s % threads == worker); the padding keeps
     * the owners off each other's cache lines.
     */
    struct alignas(64) DomainProfile
    {
        std::uint64_t executed = 0;  ///< events fired across all rounds
        std::uint64_t maxRoundEvents = 0; ///< busiest single round
        std::uint64_t idleRounds = 0; ///< lockstep rounds with no events
        std::uint64_t received = 0;   ///< cross-shard events delivered in
        std::uint64_t maxInboxDepth = 0; ///< deepest single-mailbox drain
    };

    const std::vector<DomainProfile> &
    domainProfiles() const
    {
        return profiles_;
    }

    /** Events sent cross-shard by @p src (its mailbox sequence count). */
    std::uint64_t
    eventsSent(unsigned src) const
    {
        return sendSeq_[src].value;
    }

    /** Rounds where a single busy domain ran free (skip-ahead). */
    std::uint64_t soloRounds() const { return soloRounds_; }

    /**
     * Host seconds workers spent parked at quantum barriers, summed over
     * workers. Host-timing-dependent by nature: report it only under the
     * determinism-exempt host.* namespace.
     */
    double barrierWaitSeconds() const;

  private:
    struct alignas(64) PaddedCounter
    {
        std::uint64_t value = 0;
    };

    struct alignas(64) PaddedSeconds
    {
        double value = 0;
    };

    /** Snapshot of the next round, taken under the barrier mutex. */
    struct RoundState
    {
        Tick start;
        unsigned solo;
        bool done;
    };

    static constexpr unsigned kNoSolo = ~0u;

    void workerLoop(unsigned worker);
    void drainInbox(unsigned shard, Tick windowStart);
    void runSolo(unsigned shard);
    void advanceRound();
    RoundState barrierSync(unsigned worker, bool completion);

    std::vector<EventQueue *> domains_;
    Tick quantum_;
    unsigned threads_;
    /** Observation records to release (null when nothing observes). */
    Recorder *recorder_ = nullptr;
    /** Barrier spin iterations before falling back to yield(); near
     *  zero when workers outnumber hardware threads (see ctor). */
    unsigned spinLimit_ = 1u << 14;
    /** Cut in force for the current run() (kNoLimit = none). */
    Tick limit_ = kNoLimit;
    /** mail_[src * N + dst], null on the src == dst diagonal; only
     *  (src worker, dst worker) touch it. */
    std::vector<std::unique_ptr<SpscMailbox<ShardEvent>>> mail_;
    std::vector<PaddedCounter> sendSeq_; ///< per-source send counters

    // Centralized sense-reversing spin barrier. Rounds are short (one
    // quantum is a handful of events per domain), so parking on a
    // condvar costs more than the window itself; workers spin on the
    // generation word and only fall back to yield() after a threshold.
    // The plain round fields are written only by the last arriver,
    // between its arrival (acq_rel fetch_add) and its generation bump
    // (release store); every other worker reads them only after
    // observing the bump (acquire load) — a proper release/acquire pair,
    // no mutex needed.
    alignas(64) std::atomic<std::uint64_t> generation_{0};
    alignas(64) std::atomic<unsigned> arrived_{0};
    Tick windowStart_ = 0;
    unsigned soloDomain_ = kNoSolo;
    bool done_ = false;

    std::uint64_t rounds_ = 0;
    std::uint64_t soloRounds_ = 0;
    std::atomic<std::uint64_t> delivered_{0};

    std::vector<DomainProfile> profiles_;    ///< one per domain
    std::vector<PaddedSeconds> barrierWait_; ///< one per worker (host.*)
};

/**
 * Execute independent @p jobs across @p lanes worker threads: lane w
 * runs jobs w, w + lanes, ... in index order. The job -> lane map is a
 * pure function of the indices, so any caller that merges results in
 * job order gets identical output at every lane count. Used for
 * seed-offset replica ensembles (takosim --replicate).
 */
void runLanes(unsigned lanes,
              const std::vector<std::function<void()>> &jobs);

} // namespace tako

#endif // TAKO_SIM_SHARD_HH
