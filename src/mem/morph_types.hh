/**
 * @file
 * Types shared between the memory hierarchy and the täkō layer.
 *
 * The memory hierarchy (src/mem) must trigger callbacks without depending
 * on the engine implementation (src/tako), so it talks through the
 * CallbackSink and MorphResolver interfaces defined here. MorphBinding is
 * the resolved registration record the hierarchy consults on every miss,
 * eviction, and writeback — the simulated equivalent of the TLB morph
 * bits plus per-line tag bit of Sec. 5.1/5.2.
 */

#ifndef TAKO_MEM_MORPH_TYPES_HH
#define TAKO_MEM_MORPH_TYPES_HH

#include <cstdint>

#include "mem/backing_store.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace tako
{

class Morph;

/** Where a Morph is registered (paper Sec. 4.1). */
enum class MorphLevel
{
    Private, ///< at the tile's L2
    Shared,  ///< at the L3 (one view per bank)
};

enum class CallbackKind
{
    Miss,
    Eviction,
    Writeback,
};

/** Resolved registration record for an address. */
struct MorphBinding
{
    Morph *morph = nullptr;
    std::uint32_t id = 0;
    MorphLevel level = MorphLevel::Private;
    /** Phantom range: no backing memory; callbacks define semantics. */
    bool phantom = false;
    /** Owning tile for Private registrations (engine + cache locality). */
    int tile = 0;
    bool hasMiss = false;
    bool hasEviction = false;
    bool hasWriteback = false;
    Addr base = 0;
    std::uint64_t length = 0;
};

/**
 * Interface to the engine layer: the memory hierarchy asks it for the
 * callback to run and spawns it, with the work that waits for the
 * callback to retire as the spawn's on_done.
 */
class CallbackSink
{
  public:
    virtual ~CallbackSink() = default;

    /**
     * The unstarted @p kind callback for @p line_addr on tile @p tile 's
     * engine; the Task completes when the callback retires. For a Miss
     * the cache controller has already allocated and zeroed the line and
     * defers the miss response until then. For an Eviction (clean) or a
     * Writeback (dirty), @p data is the line's contents captured at
     * eviction time; the line itself has already left the cache and
     * occupies a writeback-buffer entry until the callback retires
     * (Sec. 5.2).
     */
    virtual Task<> callback(CallbackKind kind, int tile, Addr line_addr,
                            const MorphBinding &binding, LineData data) = 0;
};

/** Interface to the morph registry (implemented in src/tako). */
class MorphResolver
{
  public:
    virtual ~MorphResolver() = default;

    /** Registration covering @p addr, or nullptr. */
    virtual const MorphBinding *resolve(Addr addr) const = 0;

    /** True if @p addr lies in the phantom region of the address space. */
    virtual bool isPhantomAddr(Addr addr) const = 0;

    /**
     * Monotonic count of registration-table mutations. Callers caching
     * resolve() results (the per-tile MRU in MemorySystem) compare this
     * to invalidate on any register/unregister.
     */
    virtual std::uint64_t generation() const { return 0; }
};

} // namespace tako

#endif // TAKO_MEM_MORPH_TYPES_HH
