/**
 * @file
 * System builder: constructs the full tiled CMP of Table 3 (cores, NoC,
 * caches, memory controllers, engines, morph registry) from one config,
 * runs guest threads to completion, and reports results.
 */

#ifndef TAKO_SYSTEM_SYSTEM_HH
#define TAKO_SYSTEM_SYSTEM_HH

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "core/core.hh"
#include "energy/energy.hh"
#include "mem/memory_system.hh"
#include "noc/mesh.hh"
#include "sim/domains.hh"
#include "sim/event_queue.hh"
#include "sim/observer.hh"
#include "sim/random.hh"
#include "sim/record.hh"
#include "sim/shard.hh"
#include "sim/stats.hh"
#include "tako/engine.hh"
#include "tako/registry.hh"

namespace tako
{

struct SystemConfig
{
    MemParams mem;
    EngineParams engine;
    CoreParams core;
    MeshParams mesh;
    EnergyParams energy;
    std::uint64_t seed = 1;

    /** Observers of the run (borrowed; each must outlive the System):
     *  record consumers, watermark observers, or both (sim/observer.hh).
     *  Observational only: none changes a simulated timing or stat. */
    std::vector<Observer *> observers;

    /** takotrace recording: invoked for every core demand access issue
     *  (prefetches, engine traffic, and täkō callbacks excluded), in
     *  (tick, key) order. Observational only: installing it changes no
     *  simulated timing or stat. */
    std::function<void(Tick, const AccessReq &)> accessTracer;

    /**
     * Shard the run across a ShardPlan partition of this many column
     * bands (1 = one domain). run() executes on the conservative
     * sharded executor whose quantum derives from the mesh's minimum
     * cross-shard latency; every non-host.* stat is bit-identical at
     * every shard count (CI gates on it). Clamped to the mesh's columns.
     */
    unsigned shards = 1;

    /** Table 3 configuration scaled to @p cores (8 -> 4x2, 16 -> 4x4,
     *  36 -> 6x6; memory bandwidth scales with cores, Sec. 9). */
    static SystemConfig forCores(unsigned cores);
};

class System
{
  public:
    explicit System(const SystemConfig &config);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return config_; }
    EventQueue &eq() { return eq_; }
    Domains &domains() { return dom_; }
    const ShardPlan &shardPlan() const { return plan_; }
    StatsRegistry &stats() { return stats_; }
    EnergyModel &energy() { return *energy_; }
    Mesh &noc() { return *noc_; }
    MemorySystem &mem() { return *mem_; }
    MorphRegistry &registry() { return *registry_; }
    EngineCluster &engines() { return *engines_; }
    Core &core(int i) { return *cores_[i]; }
    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }
    Rng &rng() { return rng_; }

    /** Queue a guest thread on @p core (runs when run() is called). */
    void addThread(int core, std::function<Task<>(Guest &)> fn);

    /**
     * Run to completion (event queue drains). Panics with diagnostics if
     * guests are still blocked when no events remain (deadlock).
     * @return simulated cycles elapsed.
     */
    Tick run();

    /**
     * Run for at most @p limit cycles (crash-injection experiments):
     * execution simply stops mid-flight — every domain at the same
     * tick — leaving caches and stores in their at-crash state for
     * inspection. The system cannot be resumed.
     */
    Tick runFor(Tick limit);

    double totalEnergy() const { return energy_->total(); }

    /** Work done, as a fraction, for progress reports (< 0: unknown);
     *  a frontend that knows its total work provides it. */
    void setFractionDone(std::function<double()> fn)
    {
        fractionDone_ = std::move(fn);
    }
    double fractionDone() const
    {
        return fractionDone_ ? fractionDone_() : -1.0;
    }

  private:
    /** The one body of run() and runFor(): every shard domain (one when
     *  config.shards == 1) owns its tiles' model state (cores, engines,
     *  caches, directory slices, routers) and drains its own EventQueue
     *  on a ShardedExecutor worker under quantum barriers; cross-domain
     *  edges travel through Domains::post keyed mailboxes, so the
     *  merged order — and every non-host.* stat — is bit-identical at
     *  every shard count (DESIGN.md "Sharded execution"). @p limit is
     *  an absolute cut tick, or ShardedExecutor::kNoLimit to run until
     *  the queues drain (then deadlock/leak checks apply). */
    Tick runDomains(Tick limit);

    /** Stage the queued guest threads as per-tile bootstrap events (the
     *  same keyed posts at every shard count, so coroutine frames are
     *  created, driven, and destroyed in the owning domain). */
    void bootGuests();

    /** Post-run deadlock/leak checks for runs that drain. */
    void postRunChecks() const;

    /** Set the host.* wall-clock, throughput and memory gauges after a
     *  run. */
    void stampHostStats(std::chrono::steady_clock::time_point host_start);

    /**
     * Register the deterministic shard.* execution/load-imbalance
     * counters after a run. Registered post-run (like host.*) so the
     * takomon series set — fixed at construction — never depends on the
     * shard topology; the values themselves are deterministic and CI
     * diffs them across host thread counts.
     */
    void stampShardStats(const ShardedExecutor &exec);

    SystemConfig config_;
    EventQueue eq_;
    /** Column partition of the mesh; degenerate (1 shard) when
     *  config.shards == 1 — the same decomposed code runs either way. */
    ShardPlan plan_;
    /** Queues for shard domains 1..N-1 (domain 0 runs on eq_). */
    std::vector<std::unique_ptr<EventQueue>> shardQueues_;
    /** Tile-to-domain router; every component schedules through it. */
    Domains dom_;
    StatsRegistry stats_;
    /** Per-domain observation records; the executor releases them. */
    Recorder recorder_;
    Rng rng_;
    std::unique_ptr<EnergyModel> energy_;
    std::unique_ptr<Mesh> noc_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<MorphRegistry> registry_;
    std::unique_ptr<EngineCluster> engines_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::pair<int, std::function<Task<>(Guest &)>>> pending_;
    std::function<double()> fractionDone_;
    double hostSeconds_ = 0.0;
};

} // namespace tako

#endif // TAKO_SYSTEM_SYSTEM_HH
