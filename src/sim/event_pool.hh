/**
 * @file
 * Intrusive pooled event nodes for the discrete-event kernel.
 *
 * Every scheduled callback used to be a std::function inside a
 * priority_queue entry: one heap allocation per event for any capture
 * larger than the libstdc++ SBO (16 bytes), plus vector churn on heap
 * sifts. An EventNode is instead a fixed 128-byte slab-pooled record with
 * the callable constructed in place. Every callable must fit the inline
 * buffer — a capture that does not is a compile error, so the kernel
 * never boxes a callable on the heap. Nodes are singly linked so the calendar queue can
 * chain them into per-slot lanes and the pool can chain them into a free
 * list without any auxiliary storage.
 */

#ifndef TAKO_SIM_EVENT_POOL_HH
#define TAKO_SIM_EVENT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace tako
{

/** What an EventNode's dispatch stub is asked to do with its callable. */
enum class EventOp
{
    Run,  ///< invoke, then destroy
    Drop, ///< destroy only (queue reset / teardown)
};

struct EventNode
{
    /// Inline callable storage; sized so the whole node is 128 bytes.
    static constexpr std::size_t kInlineBytes = 80;

    Tick when;
    /**
     * Total-order tie-break key for events at the same tick: a
     * partition-invariant (stream, per-stream seq) pair, so the same
     * order falls out at every shard count (see event_queue.hh).
     */
    std::uint64_t seq;
    EventNode *next;
    /// One indirect call replaces the std::function vtable pair.
    void (*dispatch)(EventNode &, EventOp);
    /// Stream context published in ExecCtx while the callback runs.
    std::uint32_t execStream;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];

    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= kInlineBytes &&
        alignof(F) <= alignof(std::max_align_t);

    /** Construct @p fn into this node and set the dispatch stub. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using D = std::decay_t<F>;
        static_assert(fitsInline<D>,
                      "event callable exceeds EventNode::kInlineBytes: "
                      "capture pointers, not values");
        ::new (static_cast<void *>(storage)) D(std::forward<F>(fn));
        dispatch = &stub<D>;
    }

    void run() { dispatch(*this, EventOp::Run); }
    void drop() { dispatch(*this, EventOp::Drop); }

  private:
    template <typename F>
    static void
    stub(EventNode &n, EventOp op)
    {
        F *f = std::launder(reinterpret_cast<F *>(n.storage));
        if (op == EventOp::Run)
            (*f)();
        f->~F();
    }
};

static_assert(sizeof(EventNode) == 128, "EventNode should stay one or two "
                                        "cache lines; fix kInlineBytes");

/**
 * Free-list slab allocator for EventNodes. Slabs are never returned to
 * the OS during the pool's lifetime: a simulation's steady-state event
 * population bounds the pool's high-water mark, and recycling through the
 * free list means zero malloc traffic once warmed up. Single-threaded by
 * design, like the rest of the kernel.
 */
class EventPool
{
  public:
    static constexpr std::size_t kSlabNodes = 256;

    EventPool() = default;
    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;

    EventNode *
    alloc()
    {
        if (!free_) [[unlikely]]
            grow();
        EventNode *n = free_;
        free_ = n->next;
        --freeCount_;
        ++allocs_;
        return n;
    }

    void
    release(EventNode *n)
    {
        n->next = free_;
        free_ = n;
        ++freeCount_;
    }

    /** Total nodes across all slabs. */
    std::size_t capacity() const { return slabs_.size() * kSlabNodes; }
    std::size_t freeCount() const { return freeCount_; }
    std::size_t slabCount() const { return slabs_.size(); }
    std::uint64_t totalAllocs() const { return allocs_; }

  private:
    void
    grow()
    {
        // takolint: ok(L2, the pool's own slab allocation)
        slabs_.push_back(std::make_unique<EventNode[]>(kSlabNodes));
        EventNode *slab = slabs_.back().get();
        // Chain the fresh slab back-to-front so nodes hand out in
        // address order, which keeps hot nodes packed.
        for (std::size_t i = kSlabNodes; i-- > 0;) {
            slab[i].next = free_;
            free_ = &slab[i];
        }
        freeCount_ += kSlabNodes;
    }

    EventNode *free_ = nullptr;
    std::size_t freeCount_ = 0;
    std::uint64_t allocs_ = 0;
    std::vector<std::unique_ptr<EventNode[]>> slabs_;
};

} // namespace tako

#endif // TAKO_SIM_EVENT_POOL_HH
