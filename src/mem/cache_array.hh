/**
 * @file
 * Set-associative tag arrays and replacement policies.
 *
 * Timing-only: data values live in BackingStore (see DESIGN.md). A single
 * CacheWay struct serves every level: private caches use the coherence
 * state; the L3 additionally uses the directory fields (sharers/owner).
 *
 * Replacement policies:
 *  - Lru: classic least-recently-used (L1s).
 *  - Srrip: 3-bit re-reference interval prediction [Jaleel et al., 62].
 *  - Trrip: the paper's täkō-modified RRIP ("trrîp", Sec. 5.2):
 *      (a) engine-issued fills insert at distant RRPV to avoid cache
 *          pollution from callbacks, and
 *      (b) victim selection never evicts the last non-morph line of a
 *          set, guaranteeing deadlock-free forward progress (there is
 *          always a line that can be evicted without a callback).
 */

#ifndef TAKO_MEM_CACHE_ARRAY_HH
#define TAKO_MEM_CACHE_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

/** Tile-level coherence state kept in private (L2) tags. */
enum class Coh : std::uint8_t
{
    I = 0,
    S,
    E,
    M,
};

enum class ReplPolicy
{
    Lru,
    Srrip,
    Trrip,
};

struct CacheWay
{
    Addr lineAddr = invalidAddr;
    std::uint64_t lastUse = 0;
    /** L3-only directory state: one bit per tile holding a copy. A
     *  System has at most 63 tiles. */
    std::uint64_t sharers = 0;
    /** Morph id for flush walks; 0 if none. */
    std::uint32_t morphId = 0;
    Coh coh = Coh::I;
    std::uint8_t rrpv = 0;
    /** L3-only directory state: the exclusive owner tile, or -1. */
    std::int8_t owner = -1;
    bool valid : 1 = false;
    bool dirty : 1 = false;
    /** A Morph is registered on this line (at this or a child level). */
    bool morph : 1 = false;
    /** Last fill/touch came from an engine (trrîp low priority). */
    bool engineTouched : 1 = false;
    /** Filled by a prefetch; cleared (and trains the prefetcher) on the
     *  first demand touch. */
    bool prefetched : 1 = false;

    void
    invalidate()
    {
        lineAddr = invalidAddr;
        valid = false;
        dirty = false;
        morph = false;
        engineTouched = false;
        prefetched = false;
        coh = Coh::I;
        morphId = 0;
        sharers = 0;
        owner = -1;
    }
};
// Tag arrays are a large share of a run's host memory; keep ways small:
// a 16-way set spans 512 B.
static_assert(sizeof(CacheWay) == 32);

class CacheArray
{
  public:
    /** Default victim constraint: any way may be chosen. */
    struct AnyWay
    {
        bool operator()(const CacheWay &) const { return true; }
    };

    CacheArray(std::uint64_t size_bytes, unsigned ways, ReplPolicy repl)
        : ways_(ways), repl_(repl)
    {
        // Geometry comes from user configuration (takosim --l1/--l2/
        // --l3bank), so a bad one is a configuration error, not a bug.
        const std::uint64_t lines = size_bytes / lineBytes;
        fatal_if(ways == 0 || lines % ways != 0,
                 "cache of %llu bytes cannot split into %u ways of %u-byte "
                 "lines",
                 (unsigned long long)size_bytes, ways, lineBytes);
        sets_ = static_cast<unsigned>(lines / ways);
        fatal_if(!isPow2(sets_),
                 "cache of %llu bytes with %u ways has %u sets; the set "
                 "count must be a power of two",
                 (unsigned long long)size_bytes, ways, sets_);
        ways_storage_.resize(lines);
    }

    unsigned numSets() const { return sets_; }
    unsigned numWays() const { return ways_; }
    std::uint64_t sizeBytes() const
    {
        return std::uint64_t(sets_) * ways_ * lineBytes;
    }

    unsigned
    setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>(lineNumber(line_addr) & (sets_ - 1));
    }

    std::span<CacheWay>
    set(unsigned idx)
    {
        return {&ways_storage_[std::size_t(idx) * ways_], ways_};
    }

    std::span<const CacheWay>
    set(unsigned idx) const
    {
        return {&ways_storage_[std::size_t(idx) * ways_], ways_};
    }

    /** Find the way holding @p line_addr; no replacement update. */
    CacheWay *
    lookup(Addr line_addr)
    {
        for (CacheWay &w : set(setIndex(line_addr))) {
            if (w.valid && w.lineAddr == line_addr)
                return &w;
        }
        return nullptr;
    }

    const CacheWay *
    lookup(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->lookup(line_addr);
    }

    /** Update replacement state on a hit. */
    void
    touch(CacheWay &w, bool engine_access = false)
    {
        switch (repl_) {
          case ReplPolicy::Lru:
            w.lastUse = ++useClock_;
            break;
          case ReplPolicy::Srrip:
            w.rrpv = 0;
            break;
          case ReplPolicy::Trrip:
            // Engine re-touches keep low priority; core touches promote.
            if (engine_access)
                w.rrpv = std::min<std::uint8_t>(w.rrpv, rrpvLong);
            else
                w.rrpv = 0;
            break;
        }
        if (!engine_access)
            w.engineTouched = false;
    }

    /**
     * Choose a victim way for inserting @p line_addr.
     *
     * @param inserting_morph the incoming line is morph-registered; under
     *        Trrip the last non-morph line of the set is protected.
     * @param can_evict predicate restricting the choice (locked lines,
     *        etc.).
     * @return the victim way, or nullptr if no way satisfies the
     *         constraints (caller must retry/wait).
     */
    template <typename CanEvict = AnyWay>
    CacheWay *
    findVictim(Addr line_addr, bool inserting_morph,
               CanEvict can_evict = {})
    {
        auto ways = set(setIndex(line_addr));

        // trrîp morph-reserve rule (Sec. 5.2): a set must always retain
        // one way with no Morph registered (invalid counts), so there is
        // always a line evictable without a callback. When inserting a
        // morph line, the last such "safe" way is protected.
        const CacheWay *protected_way = nullptr;
        if (repl_ == ReplPolicy::Trrip && inserting_morph) {
            unsigned safe = 0;
            const CacheWay *last = nullptr;
            for (const CacheWay &w : ways) {
                if (!w.valid || !w.morph) {
                    ++safe;
                    last = &w;
                }
            }
            if (safe == 1)
                protected_way = last;
        }

        // Invalid (non-protected) ways first: always free.
        for (CacheWay &w : ways) {
            if (!w.valid && &w != protected_way)
                return &w;
        }

        auto candidate_ok = [&](const CacheWay &w) {
            return &w != protected_way && can_evict(w);
        };

        switch (repl_) {
          case ReplPolicy::Lru: {
            CacheWay *victim = nullptr;
            for (CacheWay &w : ways) {
                if (candidate_ok(w) &&
                    (!victim || w.lastUse < victim->lastUse)) {
                    victim = &w;
                }
            }
            return victim;
          }
          case ReplPolicy::Srrip:
          case ReplPolicy::Trrip: {
            // Find an allowed way at max RRPV; age until one appears.
            for (unsigned round = 0; round <= rrpvMax; ++round) {
                for (CacheWay &w : ways) {
                    if (w.rrpv >= rrpvMax && candidate_ok(w))
                        return &w;
                }
                bool any_aged = false;
                for (CacheWay &w : ways) {
                    if (w.rrpv < rrpvMax) {
                        ++w.rrpv;
                        any_aged = true;
                    }
                }
                if (!any_aged) {
                    // Everything is at max but excluded; give up.
                    break;
                }
            }
            // Constraints exclude all max-RRPV ways; pick any allowed way.
            for (CacheWay &w : ways) {
                if (candidate_ok(w))
                    return &w;
            }
            return nullptr;
          }
        }
        return nullptr;
    }

    /**
     * Initialize @p w for @p line_addr after the caller has handled the
     * previous occupant's eviction.
     */
    void
    fill(CacheWay &w, Addr line_addr, bool morph, std::uint32_t morph_id,
         bool engine_fill)
    {
        w.invalidate();
        w.lineAddr = line_addr;
        w.valid = true;
        w.morph = morph;
        w.morphId = morph_id;
        w.engineTouched = engine_fill;
        switch (repl_) {
          case ReplPolicy::Lru:
            w.lastUse = ++useClock_;
            break;
          case ReplPolicy::Srrip:
            w.rrpv = rrpvLong;
            break;
          case ReplPolicy::Trrip:
            // Engine fills insert at long re-reference priority and are
            // never promoted past it (see touch()): lower priority than
            // core-reused data, but still able to serve short-term reuse.
            w.rrpv = rrpvLong;
            break;
        }
    }

    /**
     * Demote a way to eviction-first priority (use-once hints). Part of
     * the trrîp mechanism: plain SRRIP ignores the hint (the ablation
     * baseline); LRU (L1s) honors it with a cold insert.
     */
    void
    demote(CacheWay &w)
    {
        switch (repl_) {
          case ReplPolicy::Lru:
            w.lastUse = 0;
            break;
          case ReplPolicy::Srrip:
            break;
          case ReplPolicy::Trrip:
            w.rrpv = rrpvMax;
            break;
        }
    }

    /** Visit every valid way (flush walks, invariant checks). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (CacheWay &w : ways_storage_) {
            if (w.valid)
                fn(w);
        }
    }

    static constexpr std::uint8_t rrpvMax = 7;
    static constexpr std::uint8_t rrpvLong = 6;

  private:
    unsigned sets_;
    unsigned ways_;
    ReplPolicy repl_;
    std::uint64_t useClock_ = 0;
    std::vector<CacheWay> ways_storage_;
};

} // namespace tako

#endif // TAKO_MEM_CACHE_ARRAY_HH
