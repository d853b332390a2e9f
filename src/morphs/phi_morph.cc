#include "morphs/phi_morph.hh"

namespace tako
{

PhiMorph::PhiMorph(Addr real_next, std::uint64_t num_vertices,
                   Addr bins_base, std::uint64_t region_vertices,
                   unsigned num_banks, std::uint64_t bin_capacity_bytes,
                   unsigned threshold)
    : Morph(MorphTraits{
          .name = "phi",
          .hasMiss = true,
          .hasEviction = false,
          .hasWriteback = true,
          .missKernel = {4, 2},
          .writebackKernel = {21, 6},
      }),
      realNext_(real_next),
      numVertices_(num_vertices),
      binsBase_(bins_base),
      regionVertices_(region_vertices),
      numBanks_(num_banks),
      binCapacityBytes_(bin_capacity_bytes),
      threshold_(threshold),
      numRegions_(static_cast<unsigned>(
          divCeil(num_vertices, region_vertices))),
      binCursor_(static_cast<std::size_t>(num_banks) * numRegions_, 0),
      staging_(static_cast<std::size_t>(num_banks) * numRegions_),
      bankCounts_(num_banks)
{
}

std::uint64_t
PhiMorph::inPlaceLines() const
{
    std::uint64_t total = 0;
    for (const BankCounts &b : bankCounts_)
        total += b.inPlaceLines;
    return total;
}

std::uint64_t
PhiMorph::binnedUpdates() const
{
    std::uint64_t total = 0;
    for (const BankCounts &b : bankCounts_)
        total += b.binnedUpdates;
    return total;
}

Task<>
PhiMorph::onMiss(EngineCtx &ctx)
{
    // Initialize the line to the identity element (zero for addition)
    // without any request down the hierarchy. The controller zeroed the
    // phantom line already; this just charges the tiny kernel.
    co_await ctx.compute(4, 2);
    for (unsigned i = 0; i < wordsPerLine; ++i)
        ctx.setLineWord(i, 0);
}

Task<>
PhiMorph::onWriteback(EngineCtx &ctx)
{
    panic_if(base_ == 0, "PhiMorph used before bind()");
    const std::uint64_t vbase = (ctx.addr() - base_) / 8;

    // Scan the line for non-identity updates (SIMD compare).
    unsigned updates = 0;
    for (unsigned i = 0; i < wordsPerLine; ++i) {
        if (ctx.capturedLine()[i] != 0)
            ++updates;
    }
    co_await ctx.compute(8, 3);

    if (updates == 0)
        co_return;

    const unsigned bank = static_cast<unsigned>(ctx.tile());
    BankCounts &counts = bankCounts_[bank];
    const unsigned region = static_cast<unsigned>(vbase / regionVertices_);
    const std::size_t slot = bank * numRegions_ + region;
    std::uint64_t &cursor = binCursor_[slot];
    // Dense: apply in place. All eight words share one real line, so
    // this costs one line of memory traffic. A full bin falls back to
    // the same (PHI's policy degrades gracefully instead of losing
    // updates).
    if (updates >= threshold_ || (cursor + 8) * 16 > binCapacityBytes_) {
        ++counts.inPlaceLines;
        Join join(ctx.eq());
        for (unsigned i = 0; i < wordsPerLine; ++i) {
            const std::uint64_t delta = ctx.capturedLine()[i];
            if (delta == 0 || vbase + i >= numVertices_)
                continue;
            join.add();
            spawn(ctx.atomicAdd(realNext_ + (vbase + i) * 8, delta),
                  join.completion());
        }
        co_await ctx.compute(13, 4);
        co_await join.wait();
    } else {
        // Sparse: stage (vertex, delta) pairs in this bank's view-local
        // buffer for the destination region; completed 64B lines go to
        // the bin with one full-line streaming store.
        Staged &st = staging_[slot];
        std::vector<std::pair<Addr, std::uint64_t>> writes;
        for (unsigned i = 0; i < wordsPerLine; ++i) {
            const std::uint64_t delta = ctx.capturedLine()[i];
            if (delta == 0 || vbase + i >= numVertices_)
                continue;
            st.vertex[st.count] = vbase + i;
            st.delta[st.count] = delta;
            ++st.count;
            ++counts.binnedUpdates;
            if (st.count == 4) {
                const Addr entry = binAddr(bank, region) + cursor * 16;
                for (unsigned e = 0; e < 4; ++e) {
                    writes.emplace_back(entry + e * 16, st.vertex[e]);
                    writes.emplace_back(entry + e * 16 + 8, st.delta[e]);
                }
                cursor += 4;
                st.count = 0;
            }
        }
        co_await ctx.compute(13, 4);
        if (!writes.empty())
            co_await ctx.streamStoreMulti(writes);
    }
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
PhiMorph::takeStaged()
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (Staged &st : staging_) {
        for (unsigned e = 0; e < st.count; ++e)
            out.emplace_back(st.vertex[e], st.delta[e]);
        st.count = 0;
    }
    return out;
}

} // namespace tako
