#include "system/system.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

namespace tako
{

namespace
{

/** This process's peak resident set so far (VmHWM in /proc/self/status)
 *  in MB; 0 where that is unreadable. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

} // namespace

SystemConfig
SystemConfig::forCores(unsigned cores)
{
    SystemConfig cfg;
    cfg.mem.tiles = cores;
    // Pick the most-square mesh whose area is `cores`.
    unsigned best_x = 1;
    for (unsigned x = 1; x * x <= cores; ++x) {
        if (cores % x == 0)
            best_x = x;
    }
    cfg.mesh.dimX = cores / best_x;
    cfg.mesh.dimY = best_x;
    // Memory bandwidth scales proportionally with cores (Sec. 9):
    // 4 controllers at 16 cores -> 1 controller per 4 tiles.
    cfg.mem.memCtrls = std::max(1u, cores / 4);
    return cfg;
}

System::System(const SystemConfig &config) : config_(config), rng_(config.seed)
{
    fatal_if(config_.mesh.dimX * config_.mesh.dimY != config_.mem.tiles,
             "mesh %ux%u does not cover %u tiles", config_.mesh.dimX,
             config_.mesh.dimY, config_.mem.tiles);
    // One key stream per tile plus the system's (Domains::streamOf).
    fatal_if(config_.mem.tiles + 1 > EventQueue::kMaxStreams,
             "%u tiles exceed the event queue's limit of %zu",
             config_.mem.tiles, EventQueue::kMaxStreams - 1);

    // Stand up the shard-domain router before any component exists:
    // every run is decomposed over the plan's column partition (one
    // degenerate domain when shards == 1), so the exact same keyed
    // scheduling code executes at every shard count.
    plan_ = ShardPlan::build(config_.mesh.dimX, config_.mesh.dimY,
                             config_.mesh.routerDelay,
                             config_.mesh.linkDelay, config_.shards);
    config_.shards = plan_.shards; // reflect the [1, dimX] clamp
    std::vector<EventQueue *> queues{&eq_};
    for (unsigned s = 1; s < plan_.shards; ++s) {
        shardQueues_.push_back(std::make_unique<EventQueue>());
        queues.push_back(shardQueues_.back().get());
    }
    dom_.init(plan_, std::move(queues));
    // Per-domain stat lanes must exist before components cache handles.
    stats_.enableLanes(plan_.shards);
    recorder_.setDomains(plan_.shards);

    energy_ = std::make_unique<EnergyModel>(stats_, config_.energy);
    noc_ = std::make_unique<Mesh>(config_.mesh, stats_, *energy_);
    mem_ = std::make_unique<MemorySystem>(config_.mem, dom_, eq_, stats_,
                                          *energy_, *noc_, recorder_);
    registry_ = std::make_unique<MorphRegistry>(*mem_, dom_);
    engines_ = std::make_unique<EngineCluster>(config_.mem.tiles,
                                               config_.engine, *mem_, dom_,
                                               eq_, stats_, *energy_);
    mem_->setCallbackSink(engines_.get());
    if (config_.accessTracer) {
        recorder_.subscribe(
            recordBit(RecordKind::DemandIssue), [this](const Record &r) {
                AccessReq req;
                req.cmd = static_cast<MemCmd>(r.op);
                req.addr = r.addr;
                req.wdata = r.w[0];
                req.tile = r.tile;
                req.noFetch = r.has(Record::kNoFetch);
                req.useOnce = r.has(Record::kUseOnce);
                config_.accessTracer(r.tick, req);
            });
    }

    cores_.reserve(config_.mem.tiles);
    for (unsigned c = 0; c < config_.mem.tiles; ++c) {
        cores_.push_back(std::make_unique<Core>(
            static_cast<int>(c), config_.core, *mem_, *registry_, eq_,
            stats_, *energy_, config_.seed * 7919 + c));
    }

    engines_->setInterruptHandler([this](int core, Addr line) {
        cores_[core]->postInterrupt(line);
    });

    // Last: every component above has registered its counters, so an
    // observer that fixes its stat set at attach (takomon's sampled
    // series) sees all of them, and none of the post-run namespaces
    // (host.*, shard.*), which are not registered yet.
    for (Observer *o : config_.observers) {
        o->attach(*this);
        if (const std::uint32_t kinds = o->recordKinds())
            recorder_.subscribe(kinds,
                                [o](const Record &r) { o->record(r); });
    }
    installWatermarks(config_.observers, dom_.queues());
}

void
System::addThread(int core, std::function<Task<>(Guest &)> fn)
{
    pending_.emplace_back(core, std::move(fn));
}

void
System::bootGuests()
{
    // One keyed post per queued guest, in addThread order, onto the
    // owning core's tile. The posts draw system-stream (0) keys before
    // any event has run, and stream 0 orders below every tile stream,
    // so at their tick the boot events run first, in addThread order,
    // at every shard count — and each coroutine frame is created,
    // driven, and destroyed in the domain that owns its core.
    for (auto &[core, fn] : pending_) {
        dom_.post(core, 0, [this, c = core, f = std::move(fn)]() mutable {
            cores_[c]->run(std::move(f));
        });
    }
    pending_.clear();
}

void
System::postRunChecks() const
{
    unsigned blocked = 0;
    for (const auto &core : cores_)
        blocked += core->running();
    panic_if(blocked != 0,
             "event queue drained with %u guest thread(s) blocked "
             "(deadlock); %u memory transactions in flight",
             blocked, mem_->inflight());
    panic_if(mem_->inflight() != 0,
             "event queue drained with %u memory transactions in flight",
             mem_->inflight());
}

void
System::stampShardStats(const ShardedExecutor &exec)
{
    // Deterministic sharded-execution observability. Everything under
    // shard.* is a pure function of simulation state — CI diffs these
    // counters between host thread counts at a fixed shard count. Only
    // the barrier-stall gauge is host-timing-dependent, and it lives
    // under host.* accordingly.
    const unsigned n = plan_.shards;
    stats_
        .counter("shard.domains", "",
                 "event-queue domains in the sharded run (1 = monolithic)")
        .set(n);
    stats_
        .counter("shard.quantum", "cycles",
                 "conservative lookahead window between quantum barriers")
        .set(static_cast<double>(plan_.quantum));
    stats_
        .counter("shard.boundary_links", "",
                 "directed mesh links crossing a shard cut")
        .set(plan_.boundaryLinks);
    stats_
        .counter("shard.rounds", "",
                 "quantum rounds completed by the sharded executor")
        .set(static_cast<double>(exec.rounds()));
    stats_
        .counter("shard.solo_rounds", "",
                 "rounds where one busy domain ran free (skip-ahead)")
        .set(static_cast<double>(exec.soloRounds()));
    stats_
        .counter("shard.cross_msgs", "events",
                 "cross-shard events delivered through mailboxes")
        .set(static_cast<double>(exec.crossShardEvents()));

    std::uint64_t maxEvents = 0;
    std::uint64_t totalEvents = 0;
    for (unsigned s = 0; s < n; ++s) {
        const ShardedExecutor::DomainProfile &prof =
            exec.domainProfiles()[s];
        const std::uint64_t sent = exec.eventsSent(s);
        const std::string d = "shard.d" + std::to_string(s);
        stats_
            .counter(d + ".events", "events",
                     "events this domain executed across all rounds")
            .set(static_cast<double>(prof.executed));
        stats_
            .counter(d + ".max_round_events", "events",
                     "events this domain executed in its busiest round")
            .set(static_cast<double>(prof.maxRoundEvents));
        stats_
            .counter(d + ".idle_rounds", "",
                     "lockstep rounds where this domain had no events")
            .set(static_cast<double>(prof.idleRounds));
        stats_
            .counter(d + ".sent", "events",
                     "cross-shard events this domain sent")
            .set(static_cast<double>(sent));
        stats_
            .counter(d + ".received", "events",
                     "cross-shard events delivered to this domain")
            .set(static_cast<double>(prof.received));
        stats_
            .counter(d + ".max_inbox_depth", "events",
                     "deepest single-mailbox drain this domain saw")
            .set(static_cast<double>(prof.maxInboxDepth));
        maxEvents = std::max(maxEvents, prof.executed);
        totalEvents += prof.executed;
    }

    // Load-imbalance report: how unevenly the executed events spread
    // over domains. 1.0 = perfectly balanced; N = one domain did all
    // the work of N.
    const double mean = static_cast<double>(totalEvents) / n;
    stats_
        .counter("shard.events_max", "events",
                 "events executed by the busiest domain")
        .set(static_cast<double>(maxEvents));
    stats_
        .counter("shard.events_mean", "events",
                 "mean events executed per domain")
        .set(mean);
    stats_
        .counter("shard.load_imbalance", "",
                 "busiest domain / mean events per domain")
        .set(mean > 0 ? static_cast<double>(maxEvents) / mean : 0.0);

    stats_
        .counter("host.shard.barrier_wait_seconds", "s",
                 "host time workers spent parked at quantum barriers "
                 "(host-timing-dependent; determinism-exempt)")
        .set(exec.barrierWaitSeconds());
}

void
System::stampHostStats(
    std::chrono::steady_clock::time_point host_start)
{
    // Host-side throughput gauges. These are the only stats allowed to
    // differ between two otherwise-identical runs; consumers diffing for
    // determinism must skip the host.* namespace. Registered after the
    // run so the sampler's time series (fixed at construction) never
    // sees them.
    hostSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();
    double events = 0;
    for (const EventQueue *q : dom_.queues())
        events += static_cast<double>(q->eventsFired());
    stats_
        .counter("host.seconds", "s",
                 "host wall-clock time spent inside run()/runFor()")
        .set(hostSeconds_);
    stats_
        .counter("host.sim_events", "events",
                 "events executed by the kernel event queue")
        .set(events);
    stats_
        .counter("host.events_per_sec", "events/s",
                 "kernel event throughput (sim_events / seconds)")
        .set(hostSeconds_ > 0 ? events / hostSeconds_ : 0.0);
    stats_
        .counter("host.peak_rss_mb", "MB",
                 "this process's peak resident set so far (VmHWM; 0 "
                 "where unreadable)")
        .set(peakRssMb());
}

Tick
System::run()
{
    return runDomains(ShardedExecutor::kNoLimit);
}

Tick
System::runFor(Tick limit)
{
    return runDomains(eq_.now() + limit);
}

Tick
System::runDomains(Tick limit)
{
    const Tick start = eq_.now();
    const auto host_start = std::chrono::steady_clock::now();

    bootGuests();

    // Each domain drains its own queue under quantum barriers; the
    // Domains router carries every cross-domain edge through the
    // executor's keyed mailboxes while it is installed, and the
    // executor releases the observation records in merge order.
    ShardedExecutor exec(dom_.queues(), plan_.quantum, 0, &recorder_);
    dom_.setExecutor(&exec);
    exec.run(limit);
    dom_.setExecutor(nullptr);

    // The run ends at the globally-last event, wherever it executed (or
    // at the cut, where every domain's clock stops).
    Tick end = start;
    for (EventQueue *q : dom_.queues()) {
        q->setAdvanceHook(nullptr, 0);
        end = std::max(end, q->now());
    }
    // Merge order matters: takomon's tail rows read live lane partials,
    // so fold the stat lanes only after the observers finish.
    for (Observer *o : config_.observers)
        o->finish(*this, end);
    stats_.mergeLanes();

    stampShardStats(exec);
    stampHostStats(host_start);
    // A bounded run stops mid-flight by design (crash injection).
    if (limit == ShardedExecutor::kNoLimit)
        postRunChecks();
    return end - start;
}

} // namespace tako
