#include "workloads/pagerank_push.hh"

#include "morphs/phi_morph.hh"

namespace tako
{

const char *
name(PushVariant v)
{
    switch (v) {
      case PushVariant::Baseline:
        return "baseline";
      case PushVariant::UpdateBatching:
        return "ub";
      case PushVariant::Phi:
        return "phi";
      case PushVariant::PhiIdeal:
        return "ideal";
    }
    return "?";
}

namespace
{

struct Layout
{
    Addr rank;
    Addr next;
    Addr bins; ///< UB: per (thread, region); PHI: per (bank, region)
    std::uint64_t binCapBytes;
    unsigned numRegions;
    std::vector<std::uint64_t> reference;
};

Layout
setup(System &sys, Graph &g, const PagerankPushConfig &cfg,
      unsigned threads, Arena &arena)
{
    Layout lay{};
    BackingStore &st = sys.mem().realStore();
    g.materialize(st, arena);

    const std::uint64_t n = g.numVertices;
    lay.rank = arena.alloc(n * 8);
    lay.next = arena.alloc(n * 8);
    for (std::uint64_t v = 0; v < n; ++v) {
        st.write64(lay.rank + v * 8, cfg.rankScale);
        st.write64(lay.next + v * 8, 0);
    }
    lay.numRegions = static_cast<unsigned>(
        divCeil(n, cfg.regionVertices));
    const unsigned lanes = std::max(threads, sys.numCores());
    // Size bins exactly: per-thread destination-region histograms give
    // the worst case (communities concentrate a thread's pushes into a
    // few regions). PHI's per-bank split cannot exceed the same bound.
    std::uint64_t worst = 0;
    {
        std::vector<std::uint64_t> hist(std::size_t(threads) *
                                        lay.numRegions);
        for (std::uint64_t u = 0; u < n; ++u) {
            const std::uint64_t tid =
                std::min<std::uint64_t>(threads - 1, u * threads / n);
            for (std::uint64_t e = g.rowPtr[u]; e < g.rowPtr[u + 1];
                 ++e) {
                const unsigned region = static_cast<unsigned>(
                    g.colIdx[e] / cfg.regionVertices);
                worst = std::max(
                    worst, ++hist[tid * lay.numRegions + region]);
            }
        }
    }
    lay.binCapBytes =
        divCeil((worst + 8) * 16 + 4096, lineBytes) * lineBytes;
    lay.bins = arena.alloc(std::uint64_t(lanes) * lay.numRegions *
                           lay.binCapBytes);

    std::vector<std::uint64_t> rank(n, cfg.rankScale);
    lay.reference = pagerankPushReference(g, rank);
    return lay;
}

} // namespace

RunMetrics
runPagerankPush(PushVariant variant, const PagerankPushConfig &cfg,
                SystemConfig sys_cfg)
{
    if (variant == PushVariant::PhiIdeal)
        sys_cfg.engine.kind = EngineKind::Ideal;
    System sys(sys_cfg);
    const unsigned threads =
        std::min(cfg.threads, sys.numCores());

    Graph g = makeCommunityGraph(cfg.graph);
    Arena arena;
    Layout lay = setup(sys, g, cfg, threads, arena);
    const std::uint64_t n = g.numVertices;

    const bool is_phi =
        variant == PushVariant::Phi || variant == PushVariant::PhiIdeal;

    PhiMorph morph(lay.next, n, lay.bins, cfg.regionVertices,
                   sys.numCores(), lay.binCapBytes, cfg.phiThreshold);
    const MorphBinding *binding = nullptr;

    // UB: per-thread bin cursors (host bookkeeping of simulated bins).
    std::vector<std::uint64_t> ubCursor(
        std::size_t(threads) * lay.numRegions, 0);
    auto ub_bin_addr = [&](unsigned tid, unsigned region) {
        return lay.bins + (std::uint64_t(tid) * lay.numRegions + region) *
                              lay.binCapBytes;
    };
    // Software propagation blocking stages 4 entries (one 64B line) per
    // bin in L1-resident buffers and flushes with full-line streaming
    // stores [14, 70]; leftovers are applied directly at phase end.
    struct UbStaged
    {
        std::uint64_t vertex[4];
        std::uint64_t delta[4];
        unsigned count = 0;
    };
    std::vector<UbStaged> ubStaging(std::size_t(threads) *
                                    lay.numRegions);

    SimBarrier barrier(sys, threads);
    bool correct = false;
    Tick edgeEnd = 0;

    for (unsigned tid = 0; tid < threads; ++tid) {
        sys.addThread(static_cast<int>(tid), [&, tid](Guest &g2) -> Task<> {
            const std::uint64_t ubegin = tid * n / threads;
            const std::uint64_t uend = (tid + 1) * n / threads;

            if (tid == 0) {
                if (is_phi) {
                    binding = co_await g2.registerPhantom(
                        morph, MorphLevel::Shared, n * 8);
                    morph.bind(binding);
                }
                sys.mem().setPhase("edge");
            }
            co_await barrier.arrive();

            // ---------------- Edge phase ----------------
            for (std::uint64_t u = ubegin; u < uend; ++u) {
                std::vector<std::uint64_t> meta;
                std::vector<Addr> maddr{lay.rank + u * 8,
                                        g.rowPtrAddr + u * 8,
                                        g.rowPtrAddr + (u + 1) * 8};
                co_await g2.loadMulti(maddr, &meta);
                const unsigned deg = g.degree(u);
                if (deg == 0)
                    continue;
                const std::uint64_t contrib = meta[0] / deg;
                co_await g2.exec(8); // divide + loop setup

                for (std::uint64_t e = g.rowPtr[u]; e < g.rowPtr[u + 1];
                     e += 8) {
                    const unsigned batch = static_cast<unsigned>(
                        std::min<std::uint64_t>(8, g.rowPtr[u + 1] - e));
                    std::vector<Addr> eaddr;
                    for (unsigned k = 0; k < batch; ++k)
                        eaddr.push_back(g.colIdxAddr + (e + k) * 8);
                    co_await g2.loadMulti(eaddr, nullptr);

                    switch (variant) {
                      case PushVariant::Baseline: {
                        std::vector<std::pair<Addr, std::uint64_t>> adds;
                        for (unsigned k = 0; k < batch; ++k) {
                            adds.emplace_back(
                                lay.next + g.colIdx[e + k] * 8, contrib);
                        }
                        co_await g2.exec(2 * batch);
                        co_await g2.atomicAddMulti(adds);
                        break;
                      }
                      case PushVariant::UpdateBatching: {
                        std::vector<std::pair<Addr, std::uint64_t>> writes;
                        for (unsigned k = 0; k < batch; ++k) {
                            const std::uint64_t dst = g.colIdx[e + k];
                            const unsigned region = static_cast<unsigned>(
                                dst / cfg.regionVertices);
                            const std::size_t slot =
                                std::size_t(tid) * lay.numRegions +
                                region;
                            UbStaged &st = ubStaging[slot];
                            st.vertex[st.count] = dst;
                            st.delta[st.count] = contrib;
                            if (++st.count < 4)
                                continue;
                            st.count = 0;
                            std::uint64_t &cur = ubCursor[slot];
                            panic_if((cur + 4) * 16 > lay.binCapBytes,
                                     "UB bin overflow");
                            const Addr entry =
                                ub_bin_addr(tid, region) + cur * 16;
                            for (unsigned x = 0; x < 4; ++x) {
                                writes.emplace_back(entry + x * 16,
                                                    st.vertex[x]);
                                writes.emplace_back(entry + x * 16 + 8,
                                                    st.delta[x]);
                            }
                            cur += 4;
                        }
                        co_await g2.exec(4 * batch);
                        if (!writes.empty())
                            co_await g2.streamStoreMulti(writes);
                        break;
                      }
                      case PushVariant::Phi:
                      case PushVariant::PhiIdeal: {
                        co_await g2.exec(2 * batch);
                        for (unsigned k = 0; k < batch; ++k) {
                            co_await g2.rmoAdd(
                                binding->base + g.colIdx[e + k] * 8,
                                contrib);
                        }
                        break;
                      }
                    }
                }
            }
            if (is_phi)
                co_await g2.rmoDrain();
            if (variant == PushVariant::UpdateBatching) {
                // Drain this thread's staged leftovers directly.
                std::vector<std::pair<Addr, std::uint64_t>> adds;
                for (unsigned r = 0; r < lay.numRegions; ++r) {
                    UbStaged &st =
                        ubStaging[std::size_t(tid) * lay.numRegions + r];
                    for (unsigned x = 0; x < st.count; ++x) {
                        adds.emplace_back(lay.next + st.vertex[x] * 8,
                                          st.delta[x]);
                    }
                    st.count = 0;
                }
                co_await g2.exec(2 * adds.size());
                co_await g2.atomicAddMulti(adds);
            }
            co_await barrier.arrive();

            // ---------------- Bin phase ----------------
            if (tid == 0) {
                sys.mem().setPhase("bin");
                edgeEnd = g2.now();
                if (is_phi) {
                    co_await g2.flushData(binding);
                    // Apply staged bin leftovers from the engine views.
                    auto staged = morph.takeStaged();
                    std::vector<std::pair<Addr, std::uint64_t>> adds;
                    adds.reserve(staged.size());
                    for (const auto &[v, d] : staged)
                        adds.emplace_back(lay.next + v * 8, d);
                    co_await g2.exec(2 * adds.size());
                    co_await g2.atomicAddMulti(adds);
                }
            }
            co_await barrier.arrive();

            if (variant == PushVariant::UpdateBatching) {
                for (unsigned r = tid; r < lay.numRegions; r += threads) {
                    for (unsigned t2 = 0; t2 < threads; ++t2) {
                        const std::uint64_t count =
                            ubCursor[std::size_t(t2) * lay.numRegions + r];
                        for (std::uint64_t i = 0; i < count; i += 8) {
                            const unsigned batch =
                                static_cast<unsigned>(
                                    std::min<std::uint64_t>(8, count - i));
                            std::vector<Addr> addrs;
                            for (unsigned k = 0; k < batch; ++k) {
                                const Addr entry = ub_bin_addr(t2, r) +
                                                   (i + k) * 16;
                                addrs.push_back(entry);
                                addrs.push_back(entry + 8);
                            }
                            std::vector<std::uint64_t> vals;
                            co_await g2.streamLoadMulti(addrs, &vals);
                            std::vector<std::pair<Addr, std::uint64_t>>
                                adds;
                            for (unsigned k = 0; k < batch; ++k) {
                                adds.emplace_back(
                                    lay.next + vals[2 * k] * 8,
                                    vals[2 * k + 1]);
                            }
                            co_await g2.exec(3 * batch);
                            co_await g2.atomicAddMulti(adds);
                        }
                    }
                }
            } else if (is_phi) {
                for (unsigned r = tid; r < lay.numRegions; r += threads) {
                    for (unsigned b = 0; b < sys.numCores(); ++b) {
                        const std::uint64_t count = morph.binCount(b, r);
                        for (std::uint64_t i = 0; i < count; i += 8) {
                            const unsigned batch =
                                static_cast<unsigned>(
                                    std::min<std::uint64_t>(8, count - i));
                            std::vector<Addr> addrs;
                            for (unsigned k = 0; k < batch; ++k) {
                                const Addr entry =
                                    morph.binAddr(b, r) + (i + k) * 16;
                                addrs.push_back(entry);
                                addrs.push_back(entry + 8);
                            }
                            std::vector<std::uint64_t> vals;
                            co_await g2.streamLoadMulti(addrs, &vals);
                            std::vector<std::pair<Addr, std::uint64_t>>
                                adds;
                            for (unsigned k = 0; k < batch; ++k) {
                                adds.emplace_back(
                                    lay.next + vals[2 * k] * 8,
                                    vals[2 * k + 1]);
                            }
                            co_await g2.exec(3 * batch);
                            co_await g2.atomicAddMulti(adds);
                        }
                    }
                }
            }
            co_await barrier.arrive();

            // Correctness gate: the accumulators must now match the
            // host-side reference.
            if (tid == 0) {
                correct = true;
                for (std::uint64_t v = 0; v < n; ++v) {
                    if (sys.mem().realStore().read64(lay.next + v * 8) !=
                        lay.reference[v]) {
                        correct = false;
                        break;
                    }
                }
                sys.mem().setPhase("vertex");
            }
            co_await barrier.arrive();

            // ---------------- Vertex phase ----------------
            for (std::uint64_t v = ubegin; v < uend; v += 8) {
                const unsigned batch = static_cast<unsigned>(
                    std::min<std::uint64_t>(8, uend - v));
                std::vector<Addr> addrs;
                for (unsigned k = 0; k < batch; ++k)
                    addrs.push_back(lay.next + (v + k) * 8);
                std::vector<std::uint64_t> acc;
                co_await g2.loadMulti(addrs, &acc);
                co_await g2.exec(6 * batch);
                std::vector<std::pair<Addr, std::uint64_t>> writes;
                for (unsigned k = 0; k < batch; ++k) {
                    const std::uint64_t newRank =
                        cfg.rankScale * 15 / 100 + acc[k] * 85 / 100;
                    writes.emplace_back(lay.rank + (v + k) * 8, newRank);
                    writes.emplace_back(lay.next + (v + k) * 8, 0);
                }
                co_await g2.streamStoreMulti(writes);
            }
            co_await barrier.arrive();
            if (tid == 0 && is_phi)
                co_await g2.unregister(binding);
        });
    }

    const Tick cycles = sys.run();
    RunMetrics m = collectMetrics(sys, name(variant), cycles);
    m.extra["correct"] = correct ? 1.0 : 0.0;
    m.extra["edgeCycles"] = static_cast<double>(edgeEnd);
    m.extra["dram.edge"] = sys.stats().get("dram.reads.edge") +
                           sys.stats().get("dram.writes.edge");
    m.extra["dram.bin"] = sys.stats().get("dram.reads.bin") +
                          sys.stats().get("dram.writes.bin");
    m.extra["dram.vertex"] = sys.stats().get("dram.reads.vertex") +
                             sys.stats().get("dram.writes.vertex");
    m.extra["dram.readsTotal"] = sys.stats().get("dram.reads");
    m.extra["dram.writesTotal"] = sys.stats().get("dram.writes");
    m.extra["prefetches"] = sys.stats().get("prefetch.issued");
    m.extra["l3misses"] = sys.stats().get("l3.misses");
    m.extra["invalidations"] =
        sys.stats().get("coherence.invalidations");
    m.extra["l3evictions"] = sys.stats().get("l3.evictions");
    m.extra["inPlaceLines"] = static_cast<double>(morph.inPlaceLines());
    m.extra["binnedUpdates"] =
        static_cast<double>(morph.binnedUpdates());
    m.extra["edges"] = static_cast<double>(g.numEdges);
    return m;
}

} // namespace tako
