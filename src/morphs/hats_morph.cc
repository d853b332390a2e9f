#include "morphs/hats_morph.hh"

namespace tako
{

HatsMorph::HatsMorph(const Graph &graph, Addr visited_addr, Addr log_addr,
                     std::uint64_t log_capacity, unsigned bound,
                     unsigned depth_bound)
    : Morph(MorphTraits{
          .name = "hats",
          .hasMiss = true,
          .hasEviction = true,
          .hasWriteback = true,
          // 94 static instructions across all callbacks (Sec. 5.3).
          .missKernel = {62, 12},
          .evictionKernel = {16, 4},
          .writebackKernel = {16, 4},
      }),
      graph_(graph),
      visitedAddr_(visited_addr),
      logAddr_(log_addr),
      logCapacity_(log_capacity),
      bound_(bound),
      depthBound_(depth_bound),
      visited_(graph.numVertices, false)
{
}

Task<>
HatsMorph::visit(EngineCtx &ctx, std::uint64_t v)
{
    std::vector<std::uint64_t> batch{v};
    co_await visitBatch(ctx, batch, 0);
}

Task<>
HatsMorph::visitBatch(EngineCtx &ctx,
                      const std::vector<std::uint64_t> &children,
                      unsigned depth)
{
    if (children.empty())
        co_return;
    // One overlapped round for all children: visited-bitmap words and
    // rowPtr bounds. With community-local ids both have short-term reuse
    // across nearby visits, so they stay cacheable; the fabric's memory
    // PEs issue the whole round concurrently (Sec. 9).
    std::vector<Addr> addrs;
    std::vector<std::pair<Addr, std::uint64_t>> marks;
    for (std::uint64_t v : children) {
        visited_[v] = true;
        addrs.push_back(visitedAddr_ + (v / 64) * 8);
        addrs.push_back(graph_.rowPtrAddr + v * 8);
        addrs.push_back(graph_.rowPtrAddr + (v + 1) * 8);
    }
    co_await ctx.loadMulti(addrs, nullptr);
    for (std::uint64_t v : children) {
        std::uint64_t word = 0;
        const std::uint64_t wbase = (v / 64) * 64;
        for (unsigned b = 0;
             b < 64 && wbase + b < graph_.numVertices; ++b) {
            if (visited_[wbase + b])
                word |= std::uint64_t(1) << b;
        }
        marks.emplace_back(visitedAddr_ + (v / 64) * 8, word);
        stack_.push_back(Frame{v, graph_.rowPtr[v], depth});
    }
    co_await ctx.storeMulti(marks);
    co_await ctx.compute(6 * static_cast<unsigned>(children.size()), 3);
}

Task<>
HatsMorph::fillLine(EngineCtx &ctx)
{
    unsigned slot = 0;
    while (slot < wordsPerLine) {
        if (done_) {
            ctx.setLineWord(slot++, doneEdge);
            continue;
        }
        if (stack_.empty()) {
            // Scan for the next unvisited seed, charging one bitmap load
            // per 64-vertex word crossed.
            std::uint64_t scanned_words = 0;
            while (seedCursor_ < graph_.numVertices &&
                   visited_[seedCursor_]) {
                if (seedCursor_ % 64 == 0)
                    ++scanned_words;
                ++seedCursor_;
            }
            if (scanned_words > 0) {
                std::vector<Addr> addrs;
                for (std::uint64_t w = 0;
                     w < std::min<std::uint64_t>(scanned_words, 8); ++w) {
                    addrs.push_back(visitedAddr_ +
                                    ((seedCursor_ / 64) - w) * 8);
                }
                co_await ctx.loadMulti(addrs, nullptr);
            }
            if (seedCursor_ >= graph_.numVertices) {
                done_ = true;
                continue;
            }
            co_await visit(ctx, seedCursor_);
            continue;
        }

        // Emit as many of the top frame's edges as fit in the line, with
        // one overlapped colIdx round per chunk.
        Frame f = stack_.back();
        const std::uint64_t row_end = graph_.rowPtr[f.vertex + 1];
        if (f.edgeCursor >= row_end) {
            stack_.pop_back();
            co_await ctx.compute(2, 1);
            continue;
        }
        const unsigned take = static_cast<unsigned>(
            std::min<std::uint64_t>(wordsPerLine - slot,
                                    row_end - f.edgeCursor));
        std::vector<Addr> eaddr;
        std::vector<std::uint64_t> children;
        for (unsigned k = 0; k < take; ++k) {
            eaddr.push_back(graph_.colIdxAddr + (f.edgeCursor + k) * 8);
            const std::uint64_t v = graph_.colIdx[f.edgeCursor + k];
            ctx.setLineWord(slot++, packEdge(f.vertex, v));
            ++edgesEmitted_;
            if (!visited_[v] && f.depth < depthBound_ &&
                stack_.size() + children.size() < bound_) {
                // Dedup within the chunk (visited_ set below).
                bool dup = false;
                for (std::uint64_t c : children)
                    dup |= c == v;
                if (!dup)
                    children.push_back(v);
            }
        }
        stack_.back().edgeCursor = f.edgeCursor + take;
        // The traversal pipelines across edges (HATS's engine overlaps
        // the visit of edge k with the fetch of edge k+1), so one chunk
        // costs one overlapped memory round: colIdx words plus the new
        // children's bitmap/rowPtr state, issued concurrently on the
        // fabric's memory PEs.
        for (std::uint64_t v : children) {
            eaddr.push_back(visitedAddr_ + (v / 64) * 8);
            eaddr.push_back(graph_.rowPtrAddr + v * 8);
            eaddr.push_back(graph_.rowPtrAddr + (v + 1) * 8);
        }
        co_await ctx.loadMulti(eaddr, nullptr);
        if (!children.empty()) {
            std::vector<std::pair<Addr, std::uint64_t>> marks;
            for (std::uint64_t v : children) {
                visited_[v] = true;
                stack_.push_back(Frame{v, graph_.rowPtr[v], f.depth + 1});
            }
            for (std::uint64_t v : children) {
                std::uint64_t word = 0;
                const std::uint64_t wbase = (v / 64) * 64;
                for (unsigned b = 0;
                     b < 64 && wbase + b < graph_.numVertices; ++b) {
                    if (visited_[wbase + b])
                        word |= std::uint64_t(1) << b;
                }
                marks.emplace_back(visitedAddr_ + (v / 64) * 8, word);
            }
            co_await ctx.storeMulti(marks);
            co_await ctx.compute(
                6 * static_cast<unsigned>(children.size()), 3);
        }
        co_await ctx.compute(4 * take, 3);
    }
}

Task<>
HatsMorph::onMiss(EngineCtx &ctx)
{
    panic_if(base_ == 0, "HatsMorph used before bind()");
    const std::uint64_t line_idx = (ctx.addr() - base_) / lineBytes;

    if (line_idx < nextFillLine_) {
        // Re-miss of an evicted, already-emitted line: its unprocessed
        // edges were logged at eviction; deliver skip markers.
        co_await ctx.compute(2, 1);
        for (unsigned i = 0; i < wordsPerLine; ++i)
            ctx.setLineWord(i, invalidEdge);
        co_return;
    }

    // Sequentialize fills in stream order (see file comment): a line
    // that arrives early waits on its own Join until its predecessor's
    // fill retires.
    while (line_idx != nextFillLine_) {
        auto &slot = waiting_[line_idx];
        if (!slot) {
            slot = std::make_unique<Join>();
            slot->add();
        }
        co_await slot->wait();
        waiting_.erase(line_idx);
    }

    co_await fillLine(ctx);
    ++nextFillLine_;
    auto it = waiting_.find(nextFillLine_);
    if (it != waiting_.end() && it->second->outstanding() > 0)
        it->second->done();
}

Task<>
HatsMorph::logUnprocessed(EngineCtx &ctx)
{
    std::vector<std::pair<Addr, std::uint64_t>> writes;
    for (unsigned i = 0; i < wordsPerLine; ++i) {
        const std::uint64_t w = ctx.capturedLine()[i];
        if (w == invalidEdge || w == doneEdge)
            continue;
        panic_if(logCursor_ >= logCapacity_, "HATS edge log overflow");
        writes.emplace_back(logAddr_ + logCursor_ * 8, w);
        ++logCursor_;
        ++edgesLogged_;
    }
    co_await ctx.compute(16, 4);
    if (!writes.empty())
        co_await ctx.streamStoreMulti(writes);
}

Task<>
HatsMorph::onEviction(EngineCtx &ctx)
{
    co_await logUnprocessed(ctx);
}

Task<>
HatsMorph::onWriteback(EngineCtx &ctx)
{
    co_await logUnprocessed(ctx);
}

} // namespace tako
