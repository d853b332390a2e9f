/**
 * @file
 * HATS (Sec. 8.2): decoupled graph traversal via a phantom edge stream.
 *
 * The phantom range acts as a stream of edges; the core reads it
 * sequentially while the engine's onMiss fills each line with the next
 * eight edges in bounded-depth-first (BDFS) order, improving the
 * locality of the core's vertex-data accesses. The core marks consumed
 * edges INVALID with an atomic exchange; onEviction/onWriteback log any
 * unprocessed edges so none are lost (Table 5), and the core drains the
 * log at the end of the iteration.
 *
 * As in the paper's implementation, onMiss calls are sequentialized:
 * lines must be filled in stream order, so out-of-order callbacks
 * (e.g., from the L2 prefetcher) wait for their turn on the fabric.
 */

#ifndef TAKO_MORPHS_HATS_MORPH_HH
#define TAKO_MORPHS_HATS_MORPH_HH

#include <map>
#include <memory>
#include <vector>

#include "tako/engine.hh"
#include "tako/morph.hh"
#include "workloads/graph.hh"

namespace tako
{

class HatsMorph : public Morph
{
  public:
    /** Edge encoding: (src << 32) | dst; sentinels below. */
    static constexpr std::uint64_t invalidEdge = ~std::uint64_t(0);
    static constexpr std::uint64_t doneEdge = ~std::uint64_t(0) - 1;

    static std::uint64_t
    packEdge(std::uint64_t u, std::uint64_t v)
    {
        return (u << 32) | v;
    }

    /**
     * @param graph        host view of the CSR structure (sizes/refs)
     * @param visited_addr bitmap, one bit per vertex, in real memory
     * @param log_addr     lost-edge log region
     * @param log_capacity log capacity in edges
     * @param bound        max stack entries (bounded DFS)
     */
    HatsMorph(const Graph &graph, Addr visited_addr, Addr log_addr,
              std::uint64_t log_capacity, unsigned bound = 512,
              unsigned depth_bound = 6);

    void bind(const MorphBinding *b) { base_ = b->base; }

    Task<> onMiss(EngineCtx &ctx) override;
    Task<> onEviction(EngineCtx &ctx) override;
    Task<> onWriteback(EngineCtx &ctx) override;

    std::uint64_t edgesEmitted() const { return edgesEmitted_; }
    std::uint64_t edgesLogged() const { return edgesLogged_; }
    Addr logAddr() const { return logAddr_; }

  private:
    /** Emit up to 8 edges of the BDFS traversal into `out`. */
    Task<> fillLine(EngineCtx &ctx);

    /** Log unprocessed words of an evicted line (shared by both). */
    Task<> logUnprocessed(EngineCtx &ctx);

    /** Visit vertex v: mark visited, push (timed ops through ctx). */
    Task<> visit(EngineCtx &ctx, std::uint64_t v);

    /** Visit several children with one overlapped memory round. */
    Task<> visitBatch(EngineCtx &ctx,
                      const std::vector<std::uint64_t> &children,
                      unsigned depth);

    const Graph &graph_;
    Addr visitedAddr_;
    Addr logAddr_;
    std::uint64_t logCapacity_;
    unsigned bound_;
    unsigned depthBound_;
    Addr base_ = 0;

    // BDFS state: the engine's small stack and cursors (Sec. 8.2).
    struct Frame
    {
        std::uint64_t vertex;
        std::uint64_t edgeCursor; ///< index into colIdx
        unsigned depth;           ///< BDFS depth bound (stay local)
    };
    std::vector<Frame> stack_;
    std::vector<bool> visited_;
    std::uint64_t seedCursor_ = 0;
    bool done_ = false;

    // Stream-order sequencing of onMiss.
    std::uint64_t nextFillLine_ = 0;
    std::map<std::uint64_t, std::unique_ptr<Join>> waiting_;

    std::uint64_t edgesEmitted_ = 0;
    std::uint64_t edgesLogged_ = 0;
    std::uint64_t logCursor_ = 0;
};

} // namespace tako

#endif // TAKO_MORPHS_HATS_MORPH_HH
