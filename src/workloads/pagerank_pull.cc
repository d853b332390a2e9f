#include "workloads/pagerank_pull.hh"

#include "morphs/hats_morph.hh"

namespace tako
{

const char *
name(PullVariant v)
{
    switch (v) {
      case PullVariant::VertexOrdered:
        return "vertex-ordered";
      case PullVariant::SoftwareBdfs:
        return "sw-bdfs";
      case PullVariant::Hats:
        return "tako";
      case PullVariant::HatsIdeal:
        return "ideal";
    }
    return "?";
}

namespace
{

struct Layout
{
    Addr contrib;
    Addr next;
    Addr rank;
    Addr visited;
    Addr log;
    std::vector<std::uint64_t> contribHost;
    std::vector<std::uint64_t> reference;
};

Layout
setup(System &sys, Graph &g, const PagerankPullConfig &cfg, Arena &arena)
{
    Layout lay{};
    BackingStore &st = sys.mem().realStore();
    g.materialize(st, arena);
    const std::uint64_t n = g.numVertices;

    lay.contrib = arena.alloc(n * 8);
    lay.next = arena.alloc(n * 8);
    lay.rank = arena.alloc(n * 8);
    lay.visited = arena.alloc(divCeil(n, 64) * 8);
    lay.log = arena.alloc(g.numEdges * 8);

    lay.contribHost.resize(n);
    for (std::uint64_t v = 0; v < n; ++v) {
        const unsigned deg = g.degree(v);
        lay.contribHost[v] = deg ? cfg.rankScale / deg : 0;
        st.write64(lay.contrib + v * 8, lay.contribHost[v]);
        st.write64(lay.next + v * 8, 0);
        st.write64(lay.rank + v * 8, cfg.rankScale);
    }
    for (std::uint64_t w = 0; w < divCeil(n, 64); ++w)
        st.write64(lay.visited + w * 8, 0);

    lay.reference.assign(n, 0);
    for (std::uint64_t u = 0; u < n; ++u) {
        for (std::uint64_t e = g.rowPtr[u]; e < g.rowPtr[u + 1]; ++e)
            lay.reference[u] += lay.contribHost[g.colIdx[e]];
    }
    return lay;
}

} // namespace

RunMetrics
runPagerankPull(PullVariant variant, const PagerankPullConfig &cfg,
                SystemConfig sys_cfg)
{
    if (variant == PullVariant::HatsIdeal)
        sys_cfg.engine.kind = EngineKind::Ideal;
    System sys(sys_cfg);
    Graph g = makeCommunityGraph(cfg.graph);
    Arena arena;
    Layout lay = setup(sys, g, cfg, arena);
    const std::uint64_t n = g.numVertices;

    HatsMorph morph(g, lay.visited, lay.log, g.numEdges, cfg.bdfsBound,
                    cfg.bdfsDepth);

    const MorphBinding *binding = nullptr;
    bool correct = false;

    sys.addThread(0, [&, variant](Guest &g2) -> Task<> {
        sys.mem().setPhase("edge");

        auto process_edge = [&](std::uint64_t u,
                                std::uint64_t v) -> Task<> {
            co_await g2.load(lay.contrib + v * 8);
            co_await g2.atomicAdd(lay.next + u * 8, lay.contribHost[v]);
            co_await g2.exec(2);
        };

        switch (variant) {
          case PullVariant::VertexOrdered: {
            for (std::uint64_t u = 0; u < n; ++u) {
                std::vector<Addr> raddr{g.rowPtrAddr + u * 8,
                                        g.rowPtrAddr + (u + 1) * 8};
                co_await g2.loadMulti(raddr, nullptr);
                co_await g2.exec(3);
                std::uint64_t acc = 0;
                for (std::uint64_t e = g.rowPtr[u]; e < g.rowPtr[u + 1];
                     e += 8) {
                    const unsigned batch = static_cast<unsigned>(
                        std::min<std::uint64_t>(8, g.rowPtr[u + 1] - e));
                    std::vector<Addr> eaddr;
                    for (unsigned k = 0; k < batch; ++k)
                        eaddr.push_back(g.colIdxAddr + (e + k) * 8);
                    co_await g2.loadMulti(eaddr, nullptr);
                    std::vector<Addr> caddr;
                    for (unsigned k = 0; k < batch; ++k)
                        caddr.push_back(lay.contrib +
                                        g.colIdx[e + k] * 8);
                    co_await g2.loadMulti(caddr, nullptr);
                    co_await g2.exec(2 * batch);
                    for (unsigned k = 0; k < batch; ++k) {
                        acc += lay.contribHost[g.colIdx[e + k]];
                        if (g2.rng().chance(cfg.mispredictVertexOrdered))
                            co_await g2.mispredict();
                    }
                }
                co_await g2.store(lay.next + u * 8, acc);
            }
            break;
          }

          case PullVariant::SoftwareBdfs: {
            // The core runs the same bounded DFS the engine would,
            // paying for stack management, visited-bitmap maintenance,
            // and unpredictable branches (Sec. 8.2). Independent loads
            // within a chunk still overlap in the OOO window.
            std::vector<bool> visited(n, false);
            struct SwFrame
            {
                std::uint64_t vertex;
                std::uint64_t cursor;
                unsigned depth;
            };
            std::vector<SwFrame> stack;
            std::uint64_t seed = 0;
            auto visit_batch =
                [&](const std::vector<std::uint64_t> &children,
                    unsigned depth) -> Task<> {
                if (children.empty())
                    co_return;
                std::vector<Addr> vaddr;
                std::vector<std::pair<Addr, std::uint64_t>> marks;
                for (std::uint64_t v : children) {
                    visited[v] = true;
                    vaddr.push_back(lay.visited + (v / 64) * 8);
                    vaddr.push_back(g.rowPtrAddr + v * 8);
                    vaddr.push_back(g.rowPtrAddr + (v + 1) * 8);
                    marks.emplace_back(lay.visited + (v / 64) * 8, 1);
                    stack.push_back(SwFrame{v, g.rowPtr[v], depth});
                }
                co_await g2.loadMulti(vaddr, nullptr);
                co_await g2.storeMulti(marks);
                co_await g2.exec(8 * children.size());
            };
            while (true) {
                if (stack.empty()) {
                    while (seed < n && visited[seed])
                        ++seed;
                    if (seed >= n)
                        break;
                    std::vector<std::uint64_t> seeds{seed};
                    co_await visit_batch(seeds, 0);
                    continue;
                }
                SwFrame f = stack.back();
                const std::uint64_t row_end = g.rowPtr[f.vertex + 1];
                if (f.cursor >= row_end) {
                    stack.pop_back();
                    co_await g2.exec(3);
                    if (g2.rng().chance(cfg.mispredictBdfs))
                        co_await g2.mispredict();
                    continue;
                }
                const unsigned take = static_cast<unsigned>(
                    std::min<std::uint64_t>(8, row_end - f.cursor));
                stack.back().cursor = f.cursor + take;
                std::vector<Addr> eaddr;
                for (unsigned k = 0; k < take; ++k)
                    eaddr.push_back(g.colIdxAddr + (f.cursor + k) * 8);
                co_await g2.loadMulti(eaddr, nullptr);
                std::vector<Addr> caddr;
                std::vector<std::uint64_t> children;
                std::uint64_t acc = 0;
                for (unsigned k = 0; k < take; ++k) {
                    const std::uint64_t v = g.colIdx[f.cursor + k];
                    caddr.push_back(lay.contrib + v * 8);
                    acc += lay.contribHost[v];
                    if (!visited[v] && f.depth < cfg.bdfsDepth &&
                        stack.size() + children.size() < cfg.bdfsBound) {
                        bool dup = false;
                        for (std::uint64_t c : children)
                            dup |= c == v;
                        if (!dup)
                            children.push_back(v);
                    }
                }
                co_await g2.loadMulti(caddr, nullptr);
                co_await g2.atomicAdd(lay.next + f.vertex * 8, acc);
                co_await g2.exec(10 * take); // stack + bounds management
                for (unsigned k = 0; k < take; ++k) {
                    if (g2.rng().chance(cfg.mispredictBdfs))
                        co_await g2.mispredict();
                }
                co_await visit_batch(children, f.depth + 1);
            }
            break;
          }

          case PullVariant::Hats:
          case PullVariant::HatsIdeal: {
            const std::uint64_t stream_words =
                divCeil(g.numEdges + wordsPerLine, wordsPerLine) *
                wordsPerLine;
            binding = co_await g2.registerPhantom(
                morph, MorphLevel::Private, stream_words * 8);
            morph.bind(binding);
            const Addr stream = binding->base;

            bool done = false;
            std::uint64_t ptr = 0;
            // Software-pipelined consume loop: the swap round for line
            // k+1 is issued while line k's edges are processed (the OOO
            // window spans loop iterations).
            std::vector<std::uint64_t> words;
            auto swap_line = [&](std::uint64_t p,
                                 std::vector<std::uint64_t> *out)
                -> Task<> {
                std::vector<Addr> saddr;
                for (unsigned k = 0; k < wordsPerLine; ++k)
                    saddr.push_back(stream + (p + k) * 8);
                co_await g2.atomicSwapMulti(
                    saddr, HatsMorph::invalidEdge, out);
            };
            co_await swap_line(ptr, &words);
            while (!done) {
                Join nextSwap;
                std::vector<std::uint64_t> nextWords;
                nextSwap.add();
                spawn(swap_line(ptr + wordsPerLine, &nextWords),
                      nextSwap.completion());

                std::vector<std::uint64_t> us, vs;
                for (std::uint64_t w : words) {
                    if (w == HatsMorph::doneEdge) {
                        done = true;
                        break;
                    }
                    if (w == HatsMorph::invalidEdge)
                        continue;
                    us.push_back(w >> 32);
                    vs.push_back(w & 0xffffffffu);
                }
                co_await g2.exec(3 * wordsPerLine);
                if (!vs.empty()) {
                    std::vector<Addr> caddr;
                    for (std::uint64_t v : vs)
                        caddr.push_back(lay.contrib + v * 8);
                    co_await g2.loadMulti(caddr, nullptr);
                    std::vector<std::pair<Addr, std::uint64_t>> adds;
                    for (std::size_t k = 0; k < us.size(); ++k) {
                        adds.emplace_back(lay.next + us[k] * 8,
                                          lay.contribHost[vs[k]]);
                    }
                    co_await g2.atomicAddMulti(adds);
                }
                for (std::size_t k = 0; k < us.size(); ++k) {
                    if (g2.rng().chance(cfg.mispredictStream))
                        co_await g2.mispredict();
                }
                co_await nextSwap.wait();
                words = std::move(nextWords);
                ptr += wordsPerLine;
            }

            // Recover edges evicted before consumption (Table 5).
            co_await g2.flushData(binding);
            const std::uint64_t logged = morph.edgesLogged();
            for (std::uint64_t i = 0; i < logged; i += 8) {
                const unsigned batch = static_cast<unsigned>(
                    std::min<std::uint64_t>(8, logged - i));
                std::vector<Addr> laddr;
                for (unsigned k = 0; k < batch; ++k)
                    laddr.push_back(morph.logAddr() + (i + k) * 8);
                std::vector<std::uint64_t> words;
                co_await g2.streamLoadMulti(laddr, &words);
                for (unsigned k = 0; k < batch; ++k) {
                    const std::uint64_t u = words[k] >> 32;
                    const std::uint64_t v = words[k] & 0xffffffffu;
                    co_await process_edge(u, v);
                }
            }
            co_await g2.unregister(binding);
            break;
          }
        }

        // Correctness gate before the vertex phase.
        correct = true;
        for (std::uint64_t v = 0; v < n; ++v) {
            if (sys.mem().realStore().read64(lay.next + v * 8) !=
                lay.reference[v]) {
                correct = false;
                break;
            }
        }

        // ---------------- Vertex phase ----------------
        sys.mem().setPhase("vertex");
        for (std::uint64_t v = 0; v < n; v += 8) {
            const unsigned batch = static_cast<unsigned>(
                std::min<std::uint64_t>(8, n - v));
            std::vector<Addr> addrs;
            for (unsigned k = 0; k < batch; ++k)
                addrs.push_back(lay.next + (v + k) * 8);
            std::vector<std::uint64_t> acc;
            co_await g2.loadMulti(addrs, &acc);
            co_await g2.exec(6 * batch);
            std::vector<std::pair<Addr, std::uint64_t>> writes;
            for (unsigned k = 0; k < batch; ++k) {
                writes.emplace_back(lay.rank + (v + k) * 8,
                                    cfg.rankScale * 15 / 100 +
                                        acc[k] * 85 / 100);
                writes.emplace_back(lay.next + (v + k) * 8, 0);
            }
            co_await g2.streamStoreMulti(writes);
        }
    });

    const Tick cycles = sys.run();
    RunMetrics m = collectMetrics(sys, name(variant), cycles);
    m.extra["correct"] = correct ? 1.0 : 0.0;
    m.extra["edges"] = static_cast<double>(g.numEdges);
    m.extra["dram.edge"] = sys.stats().get("dram.reads.edge") +
                           sys.stats().get("dram.writes.edge");
    m.extra["dram.vertex"] = sys.stats().get("dram.reads.vertex") +
                             sys.stats().get("dram.writes.vertex");
    m.extra["mispredictsPerEdge"] =
        sys.stats().get("core.mispredicts") /
        static_cast<double>(g.numEdges);
    m.extra["meanLoadLatency"] =
        sys.stats().histogram("core.loadLatency").mean();
    m.extra["edgesLogged"] = static_cast<double>(morph.edgesLogged());
    return m;
}

} // namespace tako
