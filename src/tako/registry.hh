/**
 * @file
 * Morph registration (Sec. 4.1-4.2) and address-space management.
 *
 * The registry plays the role of the paper's OS support plus the TLB
 * morph bits: it tracks which address ranges have a Morph registered
 * (at most one per address), allocates phantom ranges from a reserved
 * region at the top of the address space, and resolves addresses to
 * bindings on behalf of the cache controllers.
 *
 * register/unregister semantics follow the paper: registering over real
 * addresses first flushes the range from the caches (plain, no
 * callbacks — the Morph is not yet in effect); unregistering flushes
 * with callbacks (the Morph is still in effect) and then removes the
 * binding and de-allocates phantom ranges.
 *
 * Decomposition: like a hardware rTLB, the resolve tables are
 * replicated per tile. Master state (the authoritative interval map,
 * phantom bump allocator, id counter) is homed at tile 0's domain;
 * every mutation hops there, updates the master, and broadcasts one
 * apply message per tile — the same number of messages in the same
 * stream order at every shard count, so each tile's view changes at a
 * partition-invariant point in the merged event order. Lookups touch
 * only the executing tile's replica (no locks, no sharing).
 */

#ifndef TAKO_TAKO_REGISTRY_HH
#define TAKO_TAKO_REGISTRY_HH

#include <deque>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/domains.hh"
#include "sim/interval_map.hh"
#include "tako/morph.hh"

namespace tako
{

class MorphRegistry : public MorphResolver
{
  public:
    /** Phantom ranges live at and above this address. */
    static constexpr Addr phantomBase = Addr(1) << 46;

    /** Cost of a register/unregister syscall + TLB shootdown. */
    static constexpr Tick registrationLat = 500;

    MorphRegistry(MemorySystem &mem, Domains &dom)
        : mem_(mem), dom_(dom), views_(dom.tiles())
    {
        panic_if(registrationLat < 2 * dom_.quantum(),
                 "registrationLat must cover the tile-0 round trip");
        mem_.setMorphResolver(this);
    }

    /**
     * Allocate a phantom range of @p size bytes and register @p morph
     * over it. @p tile names the owning L2 for PRIVATE registrations.
     */
    Task<const MorphBinding *> registerPhantom(Morph &morph,
                                               MorphLevel level,
                                               std::uint64_t size,
                                               int tile);

    /** Register @p morph over existing data [base, base+size). */
    Task<const MorphBinding *> registerReal(Morph &morph, MorphLevel level,
                                            Addr base, std::uint64_t size,
                                            int tile);

    /** Flush the Morph's cached data, waiting for callbacks (Sec. 4.4). */
    Task<> flushData(const MorphBinding *binding);

    /** Flush (with callbacks), then remove the registration. */
    Task<> unregister(const MorphBinding *binding);

    // MorphResolver interface. Lookups consult the replica of the tile
    // the current event executes at (system-stream contexts — pre-run
    // setup, tests — use tile 0's).
    const MorphBinding *
    resolve(Addr addr) const override
    {
        const auto *e = views_[viewIndex()].map.find(addr);
        return e ? e->value : nullptr;
    }

    bool
    isPhantomAddr(Addr addr) const override
    {
        return addr >= phantomBase;
    }

    std::uint64_t
    generation() const override
    {
        return views_[viewIndex()].gen;
    }

    std::size_t numRegistered() const { return master_.size(); }

  private:
    /** One tile's rTLB replica; written only by apply messages executing
     *  at that tile, read only by events executing there. */
    struct alignas(64) TileView
    {
        IntervalMap<const MorphBinding *> map;
        std::uint64_t gen = 0;
    };

    std::size_t
    viewIndex() const
    {
        return static_cast<std::size_t>(dom_.ctxTile(0));
    }

    /** At tile 0: build the binding, update the master map, broadcast
     *  per-tile applies. Returns the stable binding pointer. */
    const MorphBinding *insert(Morph &morph, MorphLevel level, Addr base,
                               std::uint64_t size, bool phantom, int tile);

    MemorySystem &mem_;
    Domains &dom_;

    // Master state: touched only by events executing at tile 0.
    IntervalMap<const MorphBinding *> master_;
    Addr nextPhantom_ = phantomBase;
    std::uint32_t nextId_ = 1;

    /** Binding storage; std::deque so pointers stay stable while other
     *  domains read bindings published through their replicas. */
    std::deque<MorphBinding> storage_;

    std::vector<TileView> views_;
};

} // namespace tako

#endif // TAKO_TAKO_REGISTRY_HH
