/**
 * @file
 * Shared workload utilities: a simulated-memory arena allocator and the
 * metrics bundle every benchmark variant reports.
 */

#ifndef TAKO_WORKLOADS_COMMON_HH
#define TAKO_WORKLOADS_COMMON_HH

#include <map>
#include <memory>
#include <string>

#include "system/system.hh"

namespace tako
{

/**
 * Bump allocator for the simulated real address space. Workloads lay out
 * their arrays here before timing starts; values are written directly to
 * the functional store (program initialization is not part of the
 * measured region in the paper's experiments).
 */
class Arena
{
  public:
    explicit Arena(Addr base = 0x1000'0000) : next_(base) {}

    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = lineBytes)
    {
        next_ = divCeil(next_, align) * align;
        const Addr p = next_;
        next_ += bytes;
        return p;
    }

    /** Allocate and zero-fill an array of @p n 64-bit words. */
    Addr
    allocWords(BackingStore &store, std::uint64_t n)
    {
        const Addr p = alloc(n * 8);
        for (std::uint64_t i = 0; i < n; ++i)
            store.write64(p + i * 8, 0);
        return p;
    }

  private:
    Addr next_;
};

/**
 * Reusable barrier for multi-threaded workload phases. All participants
 * must arrive before any proceeds; the barrier then resets itself.
 *
 * Partition-safe by construction: barrier state changes only inside
 * events at a fixed anchor tile. Each arriver posts an "arrived"
 * message to the anchor through the domain router (one quantum out, the
 * cross-domain minimum), where arrivals merge in the partition-invariant
 * (tick, key) total order; the arrival that completes the rendezvous
 * releases every waiter by posting the resume back to its own tile,
 * another quantum out. Counting arrivals in the awaiter directly
 * would mutate shared host state from concurrently-executing domains —
 * a data race — and even run-to-run-stable arrival order is
 * domain-major, not the merged event order, so the release's key draws
 * (and with them every downstream tie-break) would depend on the
 * partition. The two-quantum round trip is a function of the NoC config
 * alone, so a sharded run times exactly like a monolithic one.
 */
class SimBarrier
{
  public:
    SimBarrier(System &sys, unsigned participants)
        : dom_(sys.domains()), participants_(participants)
    {
    }

    auto
    arrive()
    {
        struct Awaiter
        {
            SimBarrier &bar;

            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                Domains &dom = bar.dom_;
                const int tile = dom.ctxTile();
                dom.post(kAnchorTile, dom.quantum(),
                         [b = &bar, tile, h]() { b->arrived(tile, h); });
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

  private:
    /** All barrier bookkeeping happens in this tile's events. */
    static constexpr int kAnchorTile = 0;

    void
    arrived(int tile, std::coroutine_handle<> h)
    {
        waiters_.emplace_back(tile, h);
        if (waiters_.size() < participants_)
            return;
        const auto batch = std::move(waiters_);
        waiters_.clear();
        for (const auto &[t, wh] : batch)
            dom_.post(t, dom_.quantum(), [wh]() { wh.resume(); });
    }

    Domains &dom_;
    unsigned participants_;
    std::vector<std::pair<int, std::coroutine_handle<>>> waiters_;
};

/** Metrics every variant of every case study reports. */
struct RunMetrics
{
    std::string label;
    Tick cycles = 0;
    double energy = 0;
    std::uint64_t coreInstrs = 0;
    std::uint64_t engineInstrs = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramAccesses() const { return dramReads + dramWrites; }
    /** Case-study-specific outputs (decompressions, mispredicts, ...). */
    std::map<std::string, double> extra;

    /** Full stats snapshot from the run's System (counters, histograms,
     *  time series) for JSON export; shared because RunMetrics is
     *  copied around freely by the figure drivers. */
    std::shared_ptr<StatsRegistry> stats;

    double
    speedupOver(const RunMetrics &base) const
    {
        return static_cast<double>(base.cycles) /
               static_cast<double>(cycles);
    }

    double
    energyVs(const RunMetrics &base) const
    {
        return energy / base.energy;
    }
};

/** Snapshot system-wide metrics after run() completes. */
inline RunMetrics
collectMetrics(System &sys, std::string label, Tick cycles)
{
    RunMetrics m;
    m.label = std::move(label);
    m.cycles = cycles;
    m.energy = sys.totalEnergy();
    m.coreInstrs =
        static_cast<std::uint64_t>(sys.stats().get("core.instrs"));
    m.engineInstrs =
        static_cast<std::uint64_t>(sys.stats().get("engine.instrs"));
    m.dramReads = sys.mem().dramReads();
    m.dramWrites = sys.mem().dramWrites();
    m.stats = std::make_shared<StatsRegistry>(sys.stats());
    // Surface kernel throughput in bench tables / Reporter metrics
    // ("<label>.host.events_per_sec"). Host-side only — never gated.
    if (double eps = sys.stats().get("host.events_per_sec"); eps > 0) {
        m.extra["host.events_per_sec"] = eps;
        m.extra["host.seconds"] = sys.stats().get("host.seconds");
    }
    return m;
}

} // namespace tako

#endif // TAKO_WORKLOADS_COMMON_HH
