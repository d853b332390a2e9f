#include "tako/registry.hh"

namespace tako
{

const MorphBinding *
MorphRegistry::insert(Morph &morph, MorphLevel level, Addr base,
                      std::uint64_t size, bool phantom, int tile)
{
    MorphBinding b;
    b.morph = &morph;
    b.id = nextId_++;
    b.level = level;
    b.phantom = phantom;
    b.tile = tile;
    const MorphTraits &t = morph.traits();
    b.hasMiss = t.hasMiss;
    b.hasEviction = t.hasEviction;
    b.hasWriteback = t.hasWriteback;
    b.base = base;
    b.length = size;
    storage_.push_back(b);
    const MorphBinding *mb = &storage_.back();
    const bool ok = master_.insert(base, size, mb);
    fatal_if(!ok,
             "morph '%s': range [%#llx, +%llu) overlaps an existing "
             "registration (only one Morph per address, Sec. 4.1)",
             t.name.c_str(), (unsigned long long)base,
             (unsigned long long)size);
    // rTLB shootdown: one apply per tile, always `tiles` messages in the
    // same stream order regardless of partition, each landing in its
    // tile's domain one quantum out. The registration round trip
    // (registrationLat) covers this, so the caller never resumes before
    // every replica agrees.
    for (unsigned tl = 0; tl < dom_.tiles(); ++tl) {
        dom_.post(static_cast<int>(tl), dom_.quantum(),
                  [this, tl, base, size, mb]() {
                      TileView &v = views_[tl];
                      v.map.insert(base, size, mb);
                      ++v.gen;
                  });
    }
    return mb;
}

Task<const MorphBinding *>
MorphRegistry::registerPhantom(Morph &morph, MorphLevel level,
                               std::uint64_t size, int tile)
{
    fatal_if(size == 0, "empty phantom range");
    const int home = dom_.ctxTile(0);
    // Allocation and insertion are serialized at tile 0's domain.
    co_await dom_.hopTo(0, dom_.quantum());
    // Page-align phantom ranges: huge pages are easy here because
    // phantom memory has no physical backing to fragment (Sec. 6).
    const std::uint64_t page = 2 * 1024 * 1024;
    const std::uint64_t len = divCeil(size, page) * page;
    const Addr base = nextPhantom_;
    nextPhantom_ += len;
    const MorphBinding *mb = insert(morph, level, base, len, true, tile);
    co_await dom_.hopTo(home, registrationLat);
    co_return mb;
}

Task<const MorphBinding *>
MorphRegistry::registerReal(Morph &morph, MorphLevel level, Addr base,
                            std::uint64_t size, int tile)
{
    fatal_if(size == 0, "empty real range");
    fatal_if(isPhantomAddr(base), "registerReal on a phantom address");
    // The range is flushed before the Morph takes effect so that every
    // cached line carries the morph tag bit afterwards.
    co_await mem_.flushRangePlain(lineAlign(base),
                                  divCeil(base + size, lineBytes) *
                                          lineBytes -
                                      lineAlign(base));
    const int home = dom_.ctxTile(0);
    co_await dom_.hopTo(0, dom_.quantum());
    const MorphBinding *mb = insert(morph, level, base, size, false, tile);
    co_await dom_.hopTo(home, registrationLat);
    co_return mb;
}

Task<>
MorphRegistry::flushData(const MorphBinding *binding)
{
    panic_if(!binding, "flushData(nullptr)");
    return mem_.flushMorphData(*binding);
}

Task<>
MorphRegistry::unregister(const MorphBinding *binding)
{
    panic_if(!binding, "unregister(nullptr)");
    const Addr base = binding->base;
    co_await mem_.flushMorphData(*binding);
    const int home = dom_.ctxTile(0);
    co_await dom_.hopTo(0, dom_.quantum());
    master_.erase(base);
    for (unsigned tl = 0; tl < dom_.tiles(); ++tl) {
        dom_.post(static_cast<int>(tl), dom_.quantum(),
                  [this, tl, base]() {
                      TileView &v = views_[tl];
                      v.map.erase(base);
                      ++v.gen;
                  });
    }
    co_await dom_.hopTo(home, registrationLat);
    // Phantom ranges are bump-allocated and not recycled; a freed range
    // simply becomes unreachable (accesses to it panic).
}

} // namespace tako
