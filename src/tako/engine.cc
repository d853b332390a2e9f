#include "tako/engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tako
{

// ---------------------------------------------------------------------
// Morph defaults
// ---------------------------------------------------------------------

Task<>
Morph::onMiss(EngineCtx &)
{
    panic("morph '%s' has no onMiss", traits_.name.c_str());
}

Task<>
Morph::onEviction(EngineCtx &)
{
    panic("morph '%s' has no onEviction", traits_.name.c_str());
}

Task<>
Morph::onWriteback(EngineCtx &)
{
    panic("morph '%s' has no onWriteback", traits_.name.c_str());
}

// ---------------------------------------------------------------------
// EngineCtx
// ---------------------------------------------------------------------

EngineCtx::EngineCtx(Engine &engine, const MorphBinding &binding,
                     CallbackKind kind, Addr line, LineData captured)
    : engine_(engine),
      binding_(binding),
      kind_(kind),
      line_(line),
      captured_(captured)
{
}

int
EngineCtx::tile() const
{
    return engine_.tile();
}

Tick
EngineCtx::now() const
{
    return ctxNow();
}

std::uint64_t
EngineCtx::lineWord(unsigned i) const
{
    panic_if(i >= wordsPerLine, "lineWord index %u out of range", i);
    if (kind_ == CallbackKind::Miss)
        return engine_.mem().storeFor(line_).read64(line_ + i * 8);
    return captured_[i];
}

void
EngineCtx::setLineWord(unsigned i, std::uint64_t value)
{
    panic_if(kind_ != CallbackKind::Miss,
             "setLineWord outside onMiss (the line has left the cache)");
    panic_if(i >= wordsPerLine, "setLineWord index %u out of range", i);
    engine_.mem().storeFor(line_).write64(line_ + i * 8, value);
}

namespace
{

int
callbackLevelOf(const MorphBinding &b)
{
    return b.level == MorphLevel::Private ? 0 : 1;
}

/**
 * One ported engine memory op: holds one of the engine's memory PEs
 * around the access. Resolves to the loaded value (the old value for
 * atomics), also written to @p out when non-null.
 */
Task<std::uint64_t>
portedAccess(Engine &engine, AccessReq req, std::uint64_t *out = nullptr)
{
    Semaphore &sem = engine.memPortSem();
    co_await sem.acquire();
    const std::uint64_t v = co_await engine.mem().access(req);
    sem.release();
    if (out)
        *out = v;
    co_return v;
}

/**
 * One ported access per element of @p ops, overlapped up to the
 * engine's memory ports; loaded values land in @p out (if non-null) in
 * argument order.
 */
template <typename Op>
Task<>
portedMulti(Engine &engine, int level, MemCmd cmd,
            const std::vector<Op> &ops, std::vector<std::uint64_t> *out,
            bool no_fetch = false, bool use_once = false)
{
    return overlapOps(ops, 0, out,
                      [&engine, level, cmd, no_fetch, use_once](
                          Addr addr, std::uint64_t wdata,
                          std::uint64_t *slot_out) {
                          return portedAccess(
                              engine,
                              engine.request(cmd, addr, wdata, level,
                                             no_fetch, use_once),
                              slot_out);
                      });
}

} // namespace

Task<std::uint64_t>
EngineCtx::load(Addr addr)
{
    return portedAccess(engine_,
                        engine_.request(MemCmd::Load, addr, 0,
                                        callbackLevelOf(binding_)));
}

Task<>
EngineCtx::store(Addr addr, std::uint64_t value)
{
    co_await portedAccess(engine_,
                          engine_.request(MemCmd::Store, addr, value,
                                          callbackLevelOf(binding_)));
}

Task<std::uint64_t>
EngineCtx::atomicAdd(Addr addr, std::uint64_t delta)
{
    return portedAccess(engine_,
                        engine_.request(MemCmd::AtomicAdd, addr, delta,
                                        callbackLevelOf(binding_)));
}

Task<>
EngineCtx::loadMulti(const std::vector<Addr> &addrs,
                     std::vector<std::uint64_t> *out)
{
    return portedMulti(engine_, callbackLevelOf(binding_),
                       MemCmd::Load, addrs, out);
}

Task<>
EngineCtx::streamLoadMulti(const std::vector<Addr> &addrs,
                           std::vector<std::uint64_t> *out)
{
    return portedMulti(engine_, callbackLevelOf(binding_),
                       MemCmd::Load, addrs, out, false, true);
}

Task<>
EngineCtx::storeMulti(
    const std::vector<std::pair<Addr, std::uint64_t>> &writes)
{
    return portedMulti(engine_, callbackLevelOf(binding_),
                       MemCmd::Store, writes, nullptr);
}

Task<>
EngineCtx::streamStoreMulti(
    const std::vector<std::pair<Addr, std::uint64_t>> &writes)
{
    return portedMulti(engine_, callbackLevelOf(binding_),
                       MemCmd::Store, writes, nullptr, true);
}

Task<>
EngineCtx::compute(unsigned instrs, unsigned depth)
{
    if (instrs == 0)
        co_return;
    engine_.chargeCompute(instrs);
    const Tick lat = engine_.computeLatency(instrs, depth);
    if (lat > 0)
        co_await Delay{lat};
}

void
EngineCtx::interrupt(int core)
{
    engine_.raiseInterrupt(core, line_);
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

Engine::Engine(int tile, const EngineParams &params, MemorySystem &mem,
               Domains &dom, StatsRegistry &stats, EnergyModel &energy,
               EngineCluster &cluster)
    : tile_(tile),
      params_(params),
      mem_(mem),
      dom_(dom),
      stats_(stats),
      energy_(energy),
      cluster_(cluster),
      bufferSlots_(params.callbackBuffer),
      fabricSlots_(params.kind == EngineKind::Inorder
                       ? 1
                       : (params.kind == EngineKind::Ideal
                              ? 1u << 20
                              : params.maxConcurrent)),
      memPortSem_(memPorts()),
      cbMiss_(stats.handle("engine.cb.miss")),
      cbEviction_(stats.handle("engine.cb.eviction")),
      cbWriteback_(stats.handle("engine.cb.writeback")),
      engineInstrs_(stats.handle("engine.instrs")),
      rtlbHits_(stats.handle("engine.rtlb.hits")),
      rtlbMisses_(stats.handle("engine.rtlb.misses")),
      bitstreamLoads_(stats.handle("engine.bitstream.loads")),
      missLatency_(stats.histogramHandle("engine.missLatency", 32, 16)),
      bufferWait_(stats.histogramHandle("engine.bufferWait", 16, 8)),
      hBdAddrWait_(stats.histogramHandle(
          "engine.breakdown.addr_wait", 32, 8, "cycles",
          "cycles a callback waits for same-address ordering")),
      hBdDispatch_(stats.histogramHandle(
          "engine.breakdown.dispatch", 32, 8, "cycles",
          "scheduler + fabric-slot cycles before the body starts")),
      hBdXlate_(stats.histogramHandle(
          "engine.breakdown.xlate", 32, 8, "cycles",
          "rTLB lookup + bitstream load cycles")),
      hBdBody_(stats.histogramHandle(
          "engine.breakdown.body", 32, 16, "cycles",
          "cycles spent executing the morph callback body")),
      hBdTotal_(stats.histogramHandle(
          "engine.breakdown.total", 32, 16, "cycles",
          "end-to-end callback latency, trigger to retire"))
{
}

unsigned
Engine::memPorts() const
{
    switch (params_.kind) {
      case EngineKind::Dataflow:
        return std::max(1u, params_.memPEs);
      case EngineKind::Inorder:
        return 1; // blocking loads
      case EngineKind::Ideal:
        return 1u << 20;
    }
    return 1;
}

Tick
Engine::computeLatency(unsigned instrs, unsigned depth) const
{
    switch (params_.kind) {
      case EngineKind::Ideal:
        return 0;
      case EngineKind::Dataflow: {
        // Latency-bound by the dataflow critical path, throughput-bound
        // by the integer PEs; SIMD ops count once per line.
        const unsigned d = std::max(depth, 1u);
        const Tick tput = divCeil(instrs, std::max(1u, params_.intPEs()));
        return std::max<Tick>(d, tput) * params_.peLatency;
      }
      case EngineKind::Inorder:
        // Single-issue pipeline refetching/decoding every instruction.
        return Tick(instrs) * 2;
    }
    return 0;
}

void
Engine::chargeCompute(unsigned instrs)
{
    *engineInstrs_ += instrs;
    energy_.engineInstrs(instrs, inorder());
}

AccessReq
Engine::request(MemCmd cmd, Addr addr, std::uint64_t wdata,
                int callback_level, bool no_fetch, bool use_once) const
{
    AccessReq req;
    req.cmd = cmd;
    req.addr = addr;
    req.wdata = wdata;
    req.tile = tile_;
    req.fromEngine = true;
    req.callbackLevel = callback_level;
    req.noFetch = no_fetch;
    req.useOnce = use_once;
    return req;
}

void
Engine::raiseInterrupt(int core, Addr line)
{
    // The core id comes from Morph code; the router indexes its tile
    // table with it unchecked.
    panic_if(core < 0 || core >= static_cast<int>(dom_.tiles()),
             "interrupt to core %d outside [0, %u): the system has %u "
             "tiles",
             core, dom_.tiles(), dom_.tiles());
    // Delivery mutates the target core's pending-interrupt state, so the
    // event must execute in the core's domain. interruptLat covers the
    // cross-domain lookahead (checked at cluster construction).
    dom_.post(core, params_.interruptLat, [this, core, line]() {
        cluster_.deliverInterrupt(core, line);
    });
}

Tick
Engine::rtlbLookup(Addr line)
{
    energy_.tlbAccess();
    if (rtlb_.touch(line / params_.pageBytes, params_.rtlbEntries)) {
        ++*rtlbHits_;
        return params_.tlbLat;
    }
    ++*rtlbMisses_;
    return params_.rtlbMissLat;
}

Tick
Engine::bitstreamLookup(const MorphBinding &binding)
{
    if (bitstreams_.touch(binding.id, params_.bitstreamCacheEntries))
        return 0;
    ++*bitstreamLoads_;
    // One cycle per static instruction to stream the configuration in.
    return binding.morph ? binding.morph->traits().totalInstrs() : 0;
}

Task<>
Engine::runCallback(CallbackKind kind, Addr line,
                    const MorphBinding *binding, LineData data)
{
    const Tick enqueued = ctxNow();
    Recorder &rec = mem_.recorder();
    if (rec.on(RecordKind::CbEnqueue))
        rec.push({.tick = enqueued, .tile = tile_,
                  .kind = RecordKind::CbEnqueue});

    // Misses are latency-critical and hold a reserved MSHR (Sec. 5.2),
    // so on the dataflow/ideal engines they do not queue behind buffered
    // eviction work; evictions take a callback-buffer entry (waiting in
    // the cache's writeback buffer while full) and a fabric slot. The
    // in-order engine serializes everything — one thread context.
    const bool priority_miss = kind == CallbackKind::Miss && !inorder();
    Tick admission_wait = 0;
    if (!priority_miss) {
        co_await bufferSlots_.acquire();
        admission_wait = ctxNow() - enqueued;
        bufferWait_->sample(admission_wait);
    }

    // Callbacks on the same address execute in arrival order.
    Tick t0 = ctxNow();
    co_await addrOrder_.acquire(line);
    const Tick addr_wait = ctxNow() - t0;

    co_await Delay{params_.schedulerLat};
    Tick dispatch = params_.schedulerLat;

    const Tick xlate = rtlbLookup(line) + bitstreamLookup(*binding);
    if (xlate > 0)
        co_await Delay{xlate};

    if (!priority_miss) {
        t0 = ctxNow();
        co_await fabricSlots_.acquire();
        dispatch += ctxNow() - t0;
    }

    EngineCtx ctx(*this, *binding, kind, line, data);
    Morph &morph = *binding->morph;
    const Tick body_start = ctxNow();
    switch (kind) {
      case CallbackKind::Miss:
        ++*cbMiss_;
        co_await morph.onMiss(ctx);
        missLatency_->sample(ctxNow() - enqueued);
        break;
      case CallbackKind::Eviction:
        ++*cbEviction_;
        co_await morph.onEviction(ctx);
        break;
      case CallbackKind::Writeback:
        ++*cbWriteback_;
        co_await morph.onWriteback(ctx);
        break;
    }
    const Tick body = ctxNow() - body_start;

    if (!priority_miss) {
        fabricSlots_.release();
        bufferSlots_.release();
    }
    addrOrder_.release(line);
    hBdAddrWait_->sample(addr_wait);
    hBdDispatch_->sample(dispatch);
    hBdXlate_->sample(xlate);
    hBdBody_->sample(body);
    hBdTotal_->sample(ctxNow() - enqueued);
    // The morph (and so its name) outlives the run that retires it.
    if (rec.on(RecordKind::CbRetire))
        rec.push({.tick = ctxNow(), .addr = line,
                  .w = {enqueued, admission_wait, addr_wait, dispatch,
                        xlate, body},
                  .name = morph.traits().name.c_str(), .tile = tile_,
                  .kind = RecordKind::CbRetire,
                  .op = static_cast<std::uint8_t>(kind)});
}

// ---------------------------------------------------------------------
// EngineCluster
// ---------------------------------------------------------------------

EngineCluster::EngineCluster(unsigned tiles, const EngineParams &params,
                             MemorySystem &mem, Domains &dom,
                             StatsRegistry &stats, EnergyModel &energy)
    : params_(params)
{
    panic_if(dom.active() && params.interruptLat < dom.quantum(),
             "interruptLat (%llu) below the shard lookahead quantum "
             "(%llu): interrupts could not cross domains",
             (unsigned long long)params.interruptLat,
             (unsigned long long)dom.quantum());
    engines_.reserve(tiles);
    for (unsigned t = 0; t < tiles; ++t) {
        engines_.push_back(std::make_unique<Engine>(
            static_cast<int>(t), params, mem, dom, stats, energy, *this));
    }
}

Task<>
EngineCluster::callback(CallbackKind kind, int tile, Addr line_addr,
                        const MorphBinding &binding, LineData data)
{
    return engines_[tile]->runCallback(kind, line_addr, &binding, data);
}

} // namespace tako
