/**
 * @file
 * Tile-to-domain routing for decomposed single-run simulation.
 *
 * A decomposed run partitions the model by the ShardPlan's column bands:
 * each shard domain owns its tiles' cores, engines, private caches, L3
 * bank slices, and mesh routers, and executes their events on its own
 * EventQueue. Model code that moves work between tiles — a memory
 * transaction walking the NoC, a directory message, an interrupt — goes
 * through Domains::post()/hopTo(), which
 *
 *  - draws the event's tie-break key from the *sending* stream's counter
 *    (owned by the executing domain, so no atomics), and
 *  - schedules same-domain work directly on the domain's queue and
 *    hands cross-domain work to the sharded executor, which delivers
 *    it at the start of the receiver's next round.
 *
 * Because keys are partition-invariant (see StreamKeySource) and every
 * cross-domain post is at least one conservative quantum in the future,
 * the merged event order — and therefore every simulation-visible
 * metric — is bit-identical at any shard count, including one. A
 * monolithic run uses the very same code with a single domain.
 */

#ifndef TAKO_SIM_DOMAINS_HH
#define TAKO_SIM_DOMAINS_HH

#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/exec_ctx.hh"
#include "sim/logging.hh"
#include "sim/shard.hh"

namespace tako
{

class Domains
{
  public:
    Domains() = default;
    Domains(const Domains &) = delete;
    Domains &operator=(const Domains &) = delete;

    /**
     * Bind the plan to its per-domain queues (queues are borrowed; one
     * per shard) and install the shared stream-key table on each, which
     * switches them all to partition-invariant tie-break order.
     */
    void
    init(const ShardPlan &plan, std::vector<EventQueue *> queues)
    {
        panic_if(queues.size() != plan.shards,
                 "domain count %zu != plan shards %u", queues.size(),
                 plan.shards);
        plan_ = plan;
        queues_ = std::move(queues);
        const std::size_t tiles =
            std::size_t{plan_.dimX} * plan_.dimY;
        streams_ = std::make_unique<StreamKeySource>(tiles + 1);
        for (unsigned d = 0; d < plan_.shards; ++d) {
            queues_[d]->setStreamKeys(*streams_);
            queues_[d]->setDomainIndex(d);
        }
        tileQueues_.resize(tiles);
        for (std::size_t t = 0; t < tiles; ++t)
            tileQueues_[t] = queues_[domainOf(static_cast<int>(t))];
    }

    bool active() const { return !queues_.empty(); }
    unsigned domainCount() const
    {
        return static_cast<unsigned>(queues_.size());
    }
    Tick quantum() const { return plan_.quantum; }
    unsigned tiles() const { return plan_.dimX * plan_.dimY; }

    unsigned
    domainOf(int tile) const
    {
        return plan_.shardOf(static_cast<unsigned>(tile));
    }

    /** Logical stream of a tile; stream 0 is the system/default. */
    static std::uint32_t
    streamOf(int tile)
    {
        return static_cast<std::uint32_t>(tile) + 1;
    }

    EventQueue &queueOfDomain(unsigned d) { return *queues_[d]; }
    EventQueue &queueOf(int tile) { return *tileQueues_[tile]; }
    const std::vector<EventQueue *> &queues() const { return queues_; }

    /** Tile the current event executes at (@p fallback when the context
     *  runs on the system stream, e.g. pre-run setup). */
    int
    ctxTile(int fallback = 0) const
    {
        const std::uint32_t s = detail::execCtx.stream;
        return s == 0 ? fallback : static_cast<int>(s) - 1;
    }

    StreamKeySource &streams() { return *streams_; }

    /** Executor carrying cross-domain posts; null outside
     *  ShardedExecutor::run (pre-run setup, post-run inspection). */
    void setExecutor(ShardedExecutor *exec) { exec_ = exec; }

    /**
     * Schedule @p fn to execute at tile @p dstTile at absolute tick
     * @p when. The key is drawn from the calling context's stream (its
     * counter is owned by the executing domain); the event runs with
     * the destination tile's stream as its context. Cross-domain posts
     * must be at least one quantum ahead of the sender's clock.
     */
    template <typename F>
    void
    postAbs(int dstTile, Tick when, F &&fn)
    {
        EventQueue *dq = tileQueues_[dstTile];
        const std::uint64_t key = streams_->next(detail::execCtx.stream);
        const std::uint32_t es = streamOf(dstTile);
        EventQueue *cq = detail::execCtx.queue;
        if (!exec_ || !cq || cq == dq) {
            // takolint: ok(X2, the router itself: same-domain or pre-run posts land directly, guarded by the cq == dq test above)
            dq->scheduleKeyed(when, std::forward<F>(fn), key, es);
            return;
        }
        panic_if(when < cq->now() + plan_.quantum,
                 "cross-domain post to tile %d at tick %llu from tick "
                 "%llu violates the lookahead quantum (%llu)",
                 dstTile, (unsigned long long)when,
                 (unsigned long long)cq->now(),
                 (unsigned long long)plan_.quantum);
        exec_->sendKeyed(cq->domainIndex(), dq->domainIndex(), when, key,
                         es, std::forward<F>(fn));
    }

    /**
     * Simulated time at the current execution context; outside any
     * event (pre-run setup, test code driving a coroutine's first step)
     * the time of @p tile 's queue.
     */
    Tick
    ctxNow(int tile) const
    {
        const EventQueue *cq = detail::execCtx.queue;
        return cq ? cq->now() : tileQueues_[tile]->now();
    }

    /** postAbs at (current context time + @p delta). */
    template <typename F>
    void
    post(int dstTile, Tick delta, F &&fn)
    {
        postAbs(dstTile, ctxNow(dstTile) + delta, std::forward<F>(fn));
    }

    /**
     * Awaitable that moves the coroutine to tile @p dstTile, resuming
     * there at absolute tick @p when. Everything the coroutine does
     * after the hop — schedules, stats, state touches — happens in the
     * destination tile's domain and draws keys from its stream.
     */
    auto
    hopToAbs(int dstTile, Tick when)
    {
        struct Hop
        {
            Domains &d;
            int tile;
            Tick when;

            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                d.postAbs(tile, when, [h]() { h.resume(); });
            }

            void await_resume() const noexcept {}
        };
        return Hop{*this, dstTile, when};
    }

    /** hopToAbs at (current context time + @p delta). */
    auto
    hopTo(int dstTile, Tick delta)
    {
        return hopToAbs(dstTile, ctxNow(dstTile) + delta);
    }

  private:
    ShardPlan plan_;
    std::vector<EventQueue *> queues_;
    /** Queue of each tile's domain (queues_[domainOf(tile)]). */
    std::vector<EventQueue *> tileQueues_;
    std::unique_ptr<StreamKeySource> streams_;
    ShardedExecutor *exec_ = nullptr;
};

} // namespace tako

#endif // TAKO_SIM_DOMAINS_HH
