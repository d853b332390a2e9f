/**
 * @file
 * PHI (Sec. 8.1): commutative scatter-updates buffered in-cache.
 *
 * The phantom range mirrors the vertex accumulator array; cores push
 * updates with relaxed remote atomic adds (RMOs). onMiss initializes a
 * line to the identity element without touching memory. onWriteback
 * inspects the evicted line: dense lines (many updates) are applied
 * in-place to the real accumulator array; sparse lines are logged to
 * per-(bank, region) bins for a later binning phase, exactly the
 * in-place-vs-log policy of Table 4.
 */

#ifndef TAKO_MORPHS_PHI_MORPH_HH
#define TAKO_MORPHS_PHI_MORPH_HH

#include <vector>

#include "tako/engine.hh"
#include "tako/morph.hh"

namespace tako
{

class PhiMorph : public Morph
{
  public:
    /**
     * @param real_next   real accumulator array (8B per vertex)
     * @param num_vertices vertices covered
     * @param bins_base   bin storage region
     * @param region_vertices vertices per bin region (locality unit)
     * @param num_banks   engine views (one bin set per bank)
     * @param bin_capacity_bytes per-(bank, region) bin capacity
     * @param threshold   min updates per line to apply in-place
     */
    PhiMorph(Addr real_next, std::uint64_t num_vertices, Addr bins_base,
             std::uint64_t region_vertices, unsigned num_banks,
             std::uint64_t bin_capacity_bytes, unsigned threshold = 4);

    void bind(const MorphBinding *b) { base_ = b->base; }

    Task<> onMiss(EngineCtx &ctx) override;
    Task<> onWriteback(EngineCtx &ctx) override;

    unsigned numRegions() const { return numRegions_; }

    /** Entries appended to bin (bank, region). */
    std::uint64_t
    binCount(unsigned bank, unsigned region) const
    {
        return binCursor_[bank * numRegions_ + region];
    }

    Addr
    binAddr(unsigned bank, unsigned region) const
    {
        return binsBase_ +
               (static_cast<std::uint64_t>(bank) * numRegions_ + region) *
                   binCapacityBytes_;
    }

    /** Lines applied in place, summed over banks. */
    std::uint64_t inPlaceLines() const;
    /** Updates logged to bins, summed over banks. */
    std::uint64_t binnedUpdates() const;

    /**
     * Drain staged (not yet line-complete) bin entries after flushData.
     * Returns (vertex, delta) pairs; the caller applies them directly.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> takeStaged();

  private:
    Addr realNext_;
    std::uint64_t numVertices_;
    Addr binsBase_;
    std::uint64_t regionVertices_;
    unsigned numBanks_;
    std::uint64_t binCapacityBytes_;
    unsigned threshold_;
    unsigned numRegions_;
    Addr base_ = 0;

    /** Per-(bank, region) append cursors (entry counts). Each engine
     *  view owns its bank's cursors: thread-local Morph state. */
    std::vector<std::uint64_t> binCursor_;

    /**
     * Per-(bank, region) line-staging buffers (4 entries of 16B fill one
     * 64B bin line): the engine view's local state, resident in its L1d.
     * Bin lines reach memory exactly once, as full-line streaming
     * stores — this is what keeps PHI at a fraction of a memory access
     * per onWriteback (Sec. 8.1).
     */
    struct Staged
    {
        std::uint64_t vertex[4];
        std::uint64_t delta[4];
        unsigned count = 0;
    };
    std::vector<Staged> staging_;

    /** Per-bank policy outcomes. Like binCursor_, each bank's entry is
     *  touched only by that bank's engine, i.e. by the one shard domain
     *  owning the tile; padded so neighboring domains don't false-share. */
    struct alignas(64) BankCounts
    {
        std::uint64_t inPlaceLines = 0;
        std::uint64_t binnedUpdates = 0;
    };
    std::vector<BankCounts> bankCounts_;
};

} // namespace tako

#endif // TAKO_MORPHS_PHI_MORPH_HH
