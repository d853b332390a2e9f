#include "sim/arena.hh"

#include <memory>
#include <new>
#include <vector>

namespace tako
{

namespace
{

/// Blocks carved per slab refill: enough to amortize, small enough that
/// unused classes don't bloat the footprint.
constexpr std::size_t kBlocksPerSlab = 64;

/** This thread's slabs. Leaked on purpose, not destroyed at thread
 *  exit (see the lifetime rules in arena.hh); only refills touch it. */
std::vector<std::unique_ptr<std::byte[]>> &
slabs()
{
    static thread_local auto *s =
        new std::vector<std::unique_ptr<std::byte[]>>;
    return *s;
}

} // namespace

void *
FrameArena::refill(std::size_t cls)
{
    Local &l = local_;
    const std::size_t block = (cls + 1) * kGranule;
    slabs().push_back(std::make_unique<std::byte[]>(block * kBlocksPerSlab));
    std::byte *base = slabs().back().get();
    l.stats.slabBytes += block * kBlocksPerSlab;
    // Hand out the first block; chain the rest onto the free list in
    // address order.
    for (std::size_t i = kBlocksPerSlab; i-- > 1;) {
        void *p = base + i * block;
        *static_cast<void **>(p) = l.freelist[cls];
        l.freelist[cls] = p;
    }
    return base;
}

void *
FrameArena::allocateOversize(std::size_t bytes)
{
    ++local_.stats.oversize;
    return ::operator new(bytes);
}

} // namespace tako
