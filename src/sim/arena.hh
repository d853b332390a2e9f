/**
 * @file
 * Size-class arena for coroutine frames.
 *
 * Every guest thread, täkō callback, and helper coroutine allocates its
 * frame through the promise's operator new (see task.hh). Frame sizes are
 * decided by the compiler but cluster into a handful of values per build,
 * so a size-class free list turns the malloc/free per coroutine into a
 * pointer pop/push after warm-up.
 *
 * The pop/push is inline here, over a constant-initialized thread_local
 * free list that this header defines, so a frame costs no out-of-line
 * call and no TLS wrapper call; refilling a class from a new slab and
 * frames larger than kMaxBlock (which fall through to ::operator new and
 * are counted in Stats::oversize) stay out of line in arena.cc.
 *
 * Lifetime rules: each host thread (shard worker, ensemble lane) keeps
 * its own free lists, so there is no locking on the fast path. Slabs are
 * never returned to the OS: a frame allocated on a worker thread may be
 * freed later from another thread (e.g. the owner destroys a drained
 * System after the lane joined), so the slab behind it must outlive the
 * thread that carved it. A freed block joins the freeing thread's free
 * list; blocks just migrate between per-thread lists. Freed frames are
 * handed out again in LIFO order, which keeps the hottest frame memory
 * in cache.
 */

#ifndef TAKO_SIM_ARENA_HH
#define TAKO_SIM_ARENA_HH

#include <cstddef>
#include <cstdint>

namespace tako
{

class FrameArena
{
  public:
    /// Size-class granule; also the minimum block size.
    static constexpr std::size_t kGranule = 64;
    /// Largest pooled frame; bigger requests hit ::operator new.
    static constexpr std::size_t kMaxBlock = 2048;
    static constexpr std::size_t kNumClasses = kMaxBlock / kGranule;

    struct Stats
    {
        std::uint64_t allocs = 0;    ///< pooled allocations served
        std::uint64_t reuses = 0;    ///< served from a free list
        std::uint64_t oversize = 0;  ///< fell through to ::operator new
        std::uint64_t live = 0;      ///< pooled blocks currently out
        std::uint64_t slabBytes = 0; ///< bytes held in slabs
    };

    static void *
    allocate(std::size_t bytes)
    {
        if (bytes > kMaxBlock) [[unlikely]]
            return allocateOversize(bytes);
        Local &l = local_;
        const std::size_t cls = classIndex(bytes);
        ++l.stats.allocs;
        ++l.stats.live;
        if (void *p = l.freelist[cls]) [[likely]] {
            l.freelist[cls] = *static_cast<void **>(p);
            ++l.stats.reuses;
            return p;
        }
        return refill(cls);
    }

    static void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        if (bytes > kMaxBlock) [[unlikely]] {
            ::operator delete(p);
            return;
        }
        Local &l = local_;
        const std::size_t cls = classIndex(bytes);
        *static_cast<void **>(p) = l.freelist[cls];
        l.freelist[cls] = p;
        --l.stats.live;
    }

    /** This host thread's counters. */
    static const Stats &stats() { return local_.stats; }

  private:
    FrameArena() = delete;

    /** One host thread's arena: free blocks chained through their first
     *  pointer-sized word, one list per size class. */
    struct Local
    {
        void *freelist[kNumClasses] = {};
        Stats stats;
    };

    static constexpr std::size_t
    classIndex(std::size_t bytes)
    {
        // Round up to the granule; class i serves (i + 1) * kGranule bytes.
        if (bytes <= kGranule)
            return 0;
        return (bytes + kGranule - 1) / kGranule - 1;
    }

    /** Carve a new slab for class @p cls; returns its first block. */
    static void *refill(std::size_t cls);

    static void *allocateOversize(std::size_t bytes);

    static constinit thread_local Local local_;
};

inline constinit thread_local FrameArena::Local FrameArena::local_{};

} // namespace tako

#endif // TAKO_SIM_ARENA_HH
