#include "workloads/prime_probe.hh"

#include <algorithm>

#include "morphs/eviction_guard_morph.hh"

namespace tako
{

PrimeProbeResult
runPrimeProbe(bool with_tako, const PrimeProbeConfig &cfg,
              SystemConfig sys_cfg)
{
    // The attack needs deterministic set mapping; prefetching off keeps
    // the probe timing clean.
    sys_cfg.mem.prefetchEnable = false;
    System sys(sys_cfg);
    Arena arena;

    const Addr table = arena.alloc(cfg.tableLines * lineBytes);
    for (unsigned i = 0; i < cfg.tableLines * wordsPerLine; ++i)
        sys.mem().realStore().write64(table + i * 8, i);

    // Conflict set: lines mapping to the same L3 bank and set as table
    // line 0 (the monitored line). Stride = tiles * sets lines.
    const unsigned sets = static_cast<unsigned>(
        sys_cfg.mem.l3BankSize / lineBytes / sys_cfg.mem.l3Ways);
    const std::uint64_t period = std::uint64_t(sys_cfg.mem.tiles) * sets;
    const std::uint64_t stride_bytes = period * lineBytes;
    const unsigned w = sys_cfg.mem.l3Ways;
    const Addr probeBase = arena.alloc((w + 2) * stride_bytes);
    std::vector<Addr> probeAddrs;
    {
        Addr first = lineAlign(probeBase);
        while (lineNumber(first) % period != lineNumber(table) % period)
            first += lineBytes;
        for (unsigned k = 0; k < w; ++k)
            probeAddrs.push_back(first + k * stride_bytes);
    }

    // The victim's key-dependent secret: whether it touches the
    // monitored table line in each "encryption" round.
    Rng patternRng(cfg.seed);
    std::vector<bool> secret(cfg.rounds);
    for (unsigned r = 0; r < cfg.rounds; ++r)
        secret[r] = patternRng.chance(0.5);

    EvictionGuardMorph guard(/*victim_core=*/0, sys.config().mem.tiles);
    PrimeProbeResult res{};
    std::vector<bool> inferred(cfg.rounds, false);
    std::vector<bool> victimActive(cfg.rounds, true);
    bool defended = false;

    // Rounds are loosely synchronized in a real attack; we synchronize
    // them with a barrier so attack accuracy is exactly measurable.
    SimBarrier barrier(sys, 2);

    // ---------------- Victim (core 0) ----------------
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *binding = nullptr;
        if (with_tako) {
            binding = co_await g.registerReal(
                guard, MorphLevel::Shared, table,
                cfg.tableLines * lineBytes);
        }
        Rng rng(cfg.seed * 13 + 1);
        for (unsigned round = 0; round < cfg.rounds; ++round) {
            co_await barrier.arrive(); // attacker primed
            victimActive[round] = !defended;
            if (!defended) {
                for (unsigned a = 0; a < cfg.accessesPerRound; ++a) {
                    // Non-secret lookups spread over the other lines...
                    const unsigned line = 1 + static_cast<unsigned>(
                        rng.below(cfg.tableLines - 1));
                    co_await g.load(table + line * lineBytes);
                    co_await g.exec(20);
                }
                // ...plus the secret-dependent one.
                if (secret[round]) {
                    co_await g.load(table);
                    co_await g.exec(20);
                }
            }
            if (with_tako && !defended && g.takeInterrupts() > 0) {
                // Defend: stop using the vulnerable table (switch to a
                // masked implementation / re-key).
                res.detected = true;
                res.detectionTime = g.now();
                defended = true;
            }
            co_await barrier.arrive(); // attacker may probe
        }
        if (binding)
            co_await g.unregister(binding);
    });

    // ---------------- Attacker (core 1) ----------------
    sys.addThread(1, [&](Guest &g) -> Task<> {
        for (unsigned round = 0; round < cfg.rounds; ++round) {
            // Prime the target set.
            for (Addr a : probeAddrs)
                co_await g.load(a);
            co_await barrier.arrive(); // victim runs
            co_await barrier.arrive(); // victim done
            // Probe: long latency => the victim displaced one of ours.
            bool evicted = false;
            for (Addr a : probeAddrs) {
                const Tick t0 = g.now();
                co_await g.load(a);
                if (g.now() - t0 > cfg.probeThreshold)
                    evicted = true;
            }
            inferred[round] = evicted;
            ++res.roundsRun;
            if (evicted) {
                ++res.leakedRounds;
                if (!res.detected || g.now() <= res.detectionTime)
                    ++res.leaksBeforeDefense;
            }
        }
    });

    const Tick cycles = sys.run();
    res.metrics = collectMetrics(
        sys, with_tako ? "tako" : "baseline", cycles);

    unsigned correct = 0;
    for (unsigned r = 0; r < cfg.rounds; ++r) {
        // The attacker recovers the secret bit of every round the
        // victim was still active; after the defense kicks in, probes
        // reveal nothing and the attacker's inference is dead reckoning.
        const bool truth = secret[r] && victimActive[r];
        if (inferred[r] == truth && victimActive[r])
            ++correct;
        res.trueLeaks += (inferred[r] && truth) ? 1 : 0;
    }
    res.metrics.extra["attackAccuracy"] =
        static_cast<double>(correct) /
        std::max(1u, static_cast<unsigned>(
                         std::count(victimActive.begin(),
                                    victimActive.end(), true)));
    res.metrics.extra["secretBitsRecovered"] =
        static_cast<double>(res.trueLeaks);
    for (const EvictionGuardMorph::Event &e : guard.trace())
        res.evictionTrace.emplace_back(e.when, e.line);
    return res;
}

} // namespace tako
