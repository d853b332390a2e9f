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
 * Cross-shard events travel through per-shard-pair mail buffers, two
 * per pair indexed by round parity: a round's sends append to one
 * parity, and the next round's drains deliver the other, so one barrier
 * per round separates every append from its pop. The receiving queue's
 * keyed insert places delivered mail by (tick, stream key). Because the
 * delivered set and its keys are functions of simulation state alone —
 * never of host-thread timing — every partition reproduces the same
 * (tick, key) total order bit for bit (proof sketch in DESIGN.md §4).
 * One domain is the degenerate partition: no mail, no extra thread, one
 * free-running (solo) round after the first.
 *
 * The same lane machinery drives deterministic ensembles: runLanes()
 * executes independent jobs (e.g. seed-offset replicas) across a fixed
 * worker pool with a lane assignment that depends only on job index,
 * so merged results are identical at any lane count.
 */

#ifndef TAKO_SIM_SHARD_HH
#define TAKO_SIM_SHARD_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
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

/** One cross-shard event in flight. */
struct ShardEvent
{
    Tick when = 0;
    /** Tie-break key: the sender's partition-invariant
     *  (stream, per-stream seq) pack (see StreamKeySource). */
    std::uint64_t key = 0;
    /** Stream published in ExecCtx while the delivered event runs. */
    std::uint32_t execStream = 0;
    std::function<void()> fn;
};

/**
 * Runs N event-queue domains in lockstep quantum windows on a fixed
 * worker pool. Each round, a domain's worker first delivers the mail
 * sent to it during the previous round, then runs the domain's window;
 * one barrier ends the round. The result is bit-identical at any thread
 * count (1..N): thread timing can change when host work happens, never
 * which events run in what order.
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
     * has its per-domain records released in (tick, key) order below
     * each safe horizon (see record.hh).
     */
    ShardedExecutor(std::vector<EventQueue *> domains, Tick quantum,
                    unsigned threads = 0, Recorder *recorder = nullptr);

    /** run() without a tick limit. */
    static constexpr Tick kNoLimit = EventQueue::kNoLimit;

    /**
     * Post @p fn to shard @p dst at absolute tick @p when, with the
     * partition-invariant tie-break @p key (drawn from the sending
     * event's stream counter, see StreamKeySource) and the stream
     * @p execStream it executes at. Must be called from an event
     * executing on shard @p src, @p dst must be another shard (a
     * same-shard event goes straight onto its queue), and @p when must
     * be at least the sending event's time plus the quantum — the
     * receiver panics on anything earlier (lookahead violation).
     */
    void sendKeyed(unsigned src, unsigned dst, Tick when,
                   std::uint64_t key, std::uint32_t execStream,
                   std::function<void()> fn);

    /**
     * Run every domain to quiescence (all queues and mail empty),
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
    /** Cross-shard events delivered (sum of per-domain `received`). */
    std::uint64_t crossShardEvents() const;

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
        std::uint64_t maxInboxDepth = 0; ///< largest one-sender drain
    };

    const std::vector<DomainProfile> &
    domainProfiles() const
    {
        return profiles_;
    }

    /** Events sent cross-shard by @p src. */
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
    /** The next round, as the barrier's last arriver published it. */
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
    RoundState barrierSync(unsigned worker);

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
    /**
     * mail_[parity][src * N + dst]: sendKeyed appends to mail_[parity_]
     * and drainInbox empties mail_[parity_ ^ 1]. The src worker is the
     * only writer of a pair's current buffer and the dst worker the only
     * reader of its previous one, and advanceRound flips parity_ only
     * while every worker waits at the barrier, so no buffer is ever
     * touched by two threads between barriers.
     */
    std::array<std::vector<std::vector<ShardEvent>>, 2> mail_;
    unsigned parity_ = 0;
    std::vector<Padded<std::uint64_t>> sendSeq_; ///< per-source sends

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

    std::vector<DomainProfile> profiles_;    ///< one per domain
    std::vector<Padded<double>> barrierWait_; ///< one per worker (host.*)
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
