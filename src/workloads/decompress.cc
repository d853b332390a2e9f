#include "workloads/decompress.hh"

#include "morphs/decompress_morph.hh"

namespace tako
{

const char *
name(DecompressVariant v)
{
    switch (v) {
      case DecompressVariant::Baseline:
        return "baseline";
      case DecompressVariant::Precompute:
        return "precompute";
      case DecompressVariant::Ndc:
        return "ndc";
      case DecompressVariant::Tako:
        return "tako";
      case DecompressVariant::TakoIdeal:
        return "ideal";
    }
    return "?";
}

namespace
{

struct Layout
{
    Addr bases;   ///< 8B per group of 8 values
    Addr deltas;  ///< 1B per value, packed
    Addr indices; ///< 8B per index
    Addr decomp;  ///< Precompute variant's output array
    std::uint64_t expected; ///< host checksum
    std::vector<std::uint64_t> values;
};

Layout
setup(System &sys, const DecompressConfig &cfg)
{
    Layout lay{};
    Arena arena;
    BackingStore &st = sys.mem().realStore();
    Rng rng(cfg.seed);

    const std::uint64_t groups = divCeil(cfg.numValues, 8);
    lay.bases = arena.alloc(groups * 8);
    lay.deltas = arena.alloc(cfg.numValues);
    lay.indices = arena.alloc(cfg.numIndices * 8);
    lay.decomp = arena.alloc(cfg.numValues * 8);

    lay.values.resize(cfg.numValues);
    for (std::uint64_t g = 0; g < groups; ++g) {
        const std::uint64_t base = rng.below(1u << 20);
        st.write64(lay.bases + g * 8, base);
        std::uint64_t packed = 0;
        for (unsigned i = 0; i < 8; ++i) {
            const std::uint64_t idx = g * 8 + i;
            if (idx >= cfg.numValues)
                break;
            const std::uint64_t delta = rng.below(256);
            packed |= delta << (8 * i);
            lay.values[idx] = base + delta;
        }
        st.write64(lay.deltas + g * 8, packed);
    }

    ZipfianGenerator zipf(cfg.numValues, cfg.zipfTheta);
    lay.expected = 0;
    for (std::uint64_t j = 0; j < cfg.numIndices; ++j) {
        const std::uint64_t idx = zipf(rng);
        st.write64(lay.indices + j * 8, idx);
        lay.expected += lay.values[idx];
    }
    return lay;
}

/**
 * Model of an NDC offload to the tile's L2 engine (Livia-style [83]):
 * every access ships a task to the engine, which decompresses one value
 * and replies. Requests are dispatched through the engine's scheduler
 * one at a time (per-task invocation overhead), and nothing is cached —
 * offloading near data forfeits the L1's locality (Sec. 3.3).
 */
Task<>
ndcDecompress(System &sys, const DecompressConfig &cfg, const Layout &lay,
              Semaphore &port, std::uint64_t idx, std::uint64_t *out)
{
    Engine &eng = sys.engines().engine(0);
    // Request travels to the L2-side engine.
    co_await Delay{sys.eq(),
                   sys.config().mem.l2TagLat + sys.config().mem.l2DataLat};
    co_await port.acquire();
    co_await Delay{sys.eq(), cfg.ndcDispatchLat};
    const std::uint64_t base = co_await sys.mem().access(
        eng.request(MemCmd::Load, lay.bases + (idx / 8) * 8, 0, -1));
    const std::uint64_t deltas = co_await sys.mem().access(
        eng.request(MemCmd::Load, lay.deltas + (idx / 8) * 8, 0, -1));
    eng.chargeCompute(cfg.vectorDecompressInstrs);
    co_await Delay{sys.eq(),
                   eng.computeLatency(cfg.vectorDecompressInstrs, 4)};
    port.release();
    // Response returns to the core.
    co_await Delay{sys.eq(), 2};
    *out = DecompressMorph::decompress(base, deltas,
                                       static_cast<unsigned>(idx % 8));
}

} // namespace

RunMetrics
runDecompress(DecompressVariant variant, const DecompressConfig &cfg,
              SystemConfig sys_cfg)
{
    if (variant == DecompressVariant::TakoIdeal)
        sys_cfg.engine.kind = EngineKind::Ideal;
    System sys(sys_cfg);
    Layout lay = setup(sys, cfg);

    std::uint64_t sum = 0;
    std::uint64_t decompressions = 0;
    DecompressMorph morph(lay.bases, lay.deltas, cfg.numValues);
    auto ndcPort = std::make_unique<Semaphore>(sys.eq(), cfg.ndcPorts);

    const bool is_tako = variant == DecompressVariant::Tako ||
                         variant == DecompressVariant::TakoIdeal;

    sys.addThread(0, [&, variant](Guest &g) -> Task<> {
        const MorphBinding *binding = nullptr;
        if (is_tako) {
            binding = co_await g.registerPhantom(
                morph, MorphLevel::Private, cfg.numValues * 8);
            morph.bind(binding);
        }
        if (variant == DecompressVariant::Precompute) {
            // Vectorized up-front decompression: one line (8 values) at
            // a time.
            const std::uint64_t groups = divCeil(cfg.numValues, 8);
            for (std::uint64_t grp = 0; grp < groups; ++grp) {
                std::vector<std::uint64_t> vals;
                std::vector<Addr> gaddr{lay.bases + grp * 8,
                                        lay.deltas + grp * 8};
                co_await g.loadMulti(gaddr, &vals);
                co_await g.exec(cfg.vectorDecompressInstrs);
                std::vector<std::pair<Addr, std::uint64_t>> writes;
                for (unsigned i = 0; i < 8; ++i) {
                    const std::uint64_t idx = grp * 8 + i;
                    if (idx >= cfg.numValues)
                        break;
                    writes.emplace_back(
                        lay.decomp + idx * 8,
                        DecompressMorph::decompress(vals[0], vals[1], i));
                    ++decompressions;
                }
                co_await g.streamStoreMulti(writes);
            }
        }

        // Main loop, batched by 8 indices to expose the OOO window's MLP
        // uniformly across variants.
        for (std::uint64_t j = 0; j < cfg.numIndices; j += 8) {
            const unsigned batch = static_cast<unsigned>(
                std::min<std::uint64_t>(8, cfg.numIndices - j));
            std::vector<Addr> idx_addrs;
            for (unsigned k = 0; k < batch; ++k)
                idx_addrs.push_back(lay.indices + (j + k) * 8);
            std::vector<std::uint64_t> idxs;
            co_await g.loadMulti(idx_addrs, &idxs);
            co_await g.exec(batch); // index bookkeeping

            switch (variant) {
              case DecompressVariant::Baseline: {
                std::vector<Addr> addrs;
                for (unsigned k = 0; k < batch; ++k) {
                    addrs.push_back(lay.bases + (idxs[k] / 8) * 8);
                    addrs.push_back(lay.deltas + (idxs[k] / 8) * 8);
                }
                std::vector<std::uint64_t> vals;
                co_await g.loadMulti(addrs, &vals);
                co_await g.exec(std::uint64_t(cfg.coreDecompressInstrs) *
                                batch);
                for (unsigned k = 0; k < batch; ++k) {
                    sum += DecompressMorph::decompress(
                        vals[2 * k], vals[2 * k + 1],
                        static_cast<unsigned>(idxs[k] % 8));
                    ++decompressions;
                }
                break;
              }
              case DecompressVariant::Precompute:
              case DecompressVariant::Tako:
              case DecompressVariant::TakoIdeal: {
                const Addr arr = variant == DecompressVariant::Precompute
                                     ? lay.decomp
                                     : binding->base;
                std::vector<Addr> addrs;
                for (unsigned k = 0; k < batch; ++k)
                    addrs.push_back(arr + idxs[k] * 8);
                std::vector<std::uint64_t> vals;
                co_await g.loadMulti(addrs, &vals);
                co_await g.exec(2 * batch);
                for (unsigned k = 0; k < batch; ++k)
                    sum += vals[k];
                break;
              }
              case DecompressVariant::Ndc: {
                Join join(g.eq());
                std::vector<std::uint64_t> vals(batch, 0);
                for (unsigned k = 0; k < batch; ++k) {
                    join.add();
                    spawn(ndcDecompress(sys, cfg, lay, *ndcPort, idxs[k],
                                        &vals[k]),
                          join.completion());
                }
                co_await g.exec(2 * batch); // issue + consume
                co_await join.wait();
                for (unsigned k = 0; k < batch; ++k)
                    sum += vals[k];
                decompressions += batch;
                break;
              }
            }
        }
        if (binding)
            co_await g.unregister(binding);
    });

    const Tick cycles = sys.run();
    RunMetrics m = collectMetrics(sys, name(variant), cycles);
    if (is_tako)
        decompressions = morph.decompressions();
    m.extra["decompressions"] = static_cast<double>(decompressions);
    m.extra["missLat"] =
        sys.stats().histogram("engine.missLatency").mean();
    m.extra["cbMiss"] = sys.stats().get("engine.cb.miss");
    m.extra["loadLat"] =
        sys.stats().histogram("core.loadLatency").mean();
    m.extra["l1h"] = sys.stats().get("l1.hits");
    m.extra["l1m"] = sys.stats().get("l1.misses");
    m.extra["l2h"] = sys.stats().get("l2.hits");
    m.extra["l2m"] = sys.stats().get("l2.misses");
    m.extra["pf"] = sys.stats().get("prefetch.issued");
    m.extra["checksum"] = static_cast<double>(sum);
    m.extra["expected"] = static_cast<double>(lay.expected);
    m.extra["correct"] = sum == lay.expected ? 1.0 : 0.0;
    return m;
}

} // namespace tako
