#include "core/core.hh"

namespace tako
{

// ---------------------------------------------------------------------
// Guest (thin forwarding layer: a call that only forwards returns the
// Core's or the registry's Task, so it costs no frame of its own)
// ---------------------------------------------------------------------

int
Guest::id() const
{
    return core_.id();
}

EventQueue &
Guest::eq() const
{
    return core_.eq();
}

Tick
Guest::now() const
{
    return ctxNow(core_.eq());
}

MemorySystem &
Guest::mem() const
{
    return core_.mem();
}

Rng &
Guest::rng()
{
    return core_.rng();
}

Task<>
Guest::exec(std::uint64_t instrs)
{
    return core_.exec(instrs);
}

Task<std::uint64_t>
Guest::load(Addr addr)
{
    return core_.memOp(MemCmd::Load, addr, 0);
}

Task<>
Guest::store(Addr addr, std::uint64_t value)
{
    co_await core_.memOp(MemCmd::Store, addr, value);
}

Task<std::uint64_t>
Guest::atomicAdd(Addr addr, std::uint64_t delta)
{
    return core_.memOp(MemCmd::AtomicAdd, addr, delta);
}

Task<std::uint64_t>
Guest::atomicSwap(Addr addr, std::uint64_t value)
{
    return core_.memOp(MemCmd::AtomicSwap, addr, value);
}

Task<>
Guest::loadMulti(const std::vector<Addr> &addrs,
                 std::vector<std::uint64_t> *out)
{
    return core_.multiOp(MemCmd::Load, addrs, out);
}

Task<>
Guest::streamLoadMulti(const std::vector<Addr> &addrs,
                       std::vector<std::uint64_t> *out)
{
    return core_.multiOp(MemCmd::Load, addrs, out, 0, false, true);
}

Task<>
Guest::storeMulti(const std::vector<std::pair<Addr, std::uint64_t>> &writes)
{
    return core_.multiOp(MemCmd::Store, writes, nullptr);
}

Task<>
Guest::streamStoreMulti(
    const std::vector<std::pair<Addr, std::uint64_t>> &writes)
{
    return core_.multiOp(MemCmd::Store, writes, nullptr, 0, true);
}

Task<>
Guest::atomicAddMulti(
    const std::vector<std::pair<Addr, std::uint64_t>> &adds)
{
    return core_.multiOp(MemCmd::AtomicAdd, adds, nullptr);
}

Task<>
Guest::atomicSwapMulti(const std::vector<Addr> &addrs,
                       std::uint64_t value,
                       std::vector<std::uint64_t> *out)
{
    return core_.multiOp(MemCmd::AtomicSwap, addrs, out, value);
}

Task<>
Guest::rmoAdd(Addr addr, std::uint64_t delta)
{
    return core_.rmoAdd(addr, delta);
}

Task<>
Guest::rmoDrain()
{
    return core_.rmoDrain();
}

Task<>
Guest::mispredict()
{
    return core_.mispredict();
}

Task<const MorphBinding *>
Guest::registerPhantom(Morph &morph, MorphLevel level, std::uint64_t size)
{
    return core_.registry().registerPhantom(morph, level, size,
                                            core_.id());
}

Task<const MorphBinding *>
Guest::registerReal(Morph &morph, MorphLevel level, Addr base,
                    std::uint64_t size)
{
    return core_.registry().registerReal(morph, level, base, size,
                                         core_.id());
}

Task<>
Guest::flushData(const MorphBinding *binding)
{
    return core_.registry().flushData(binding);
}

Task<>
Guest::unregister(const MorphBinding *binding)
{
    return core_.registry().unregister(binding);
}

std::uint64_t
Guest::takeInterrupts()
{
    return core_.takeInterrupts();
}

std::uint64_t
Guest::interruptsSeen() const
{
    return core_.interruptsSeen();
}

// ---------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------

Core::Core(int id, const CoreParams &params, MemorySystem &mem,
           MorphRegistry &registry, EventQueue &eq, StatsRegistry &stats,
           EnergyModel &energy, std::uint64_t seed)
    : id_(id),
      params_(params),
      mem_(mem),
      registry_(registry),
      eq_(eq),
      energy_(energy),
      rng_(seed),
      guest_(*this),
      loadWindow_(eq, params.maxOutstandingLoads),
      storeBuffer_(eq, params.storeBufferEntries),
      rmoOutstanding_(eq),
      instrs_(stats.counter("core.instrs")),
      myInstrs_(stats.counter(strprintf("core%d.instrs", id))),
      mispredicts_(stats.counter("core.mispredicts")),
      interrupts_(stats.counter("core.interrupts")),
      loadLatency_(stats.histogram("core.loadLatency", 64, 8))
{
}

void
Core::run(std::function<Task<>(Guest &)> fn)
{
    ++running_;
    // Wrap so the guest function object stays alive in the wrapper frame.
    spawn(
        [](Core *core, std::function<Task<>(Guest &)> f) -> Task<> {
            co_await f(core->guest());
        }(this, std::move(fn)),
        [this]() { --running_; });
}

void
Core::postInterrupt(Addr)
{
    ++pendingInterrupts_;
    ++interruptsSeen_;
    ++interrupts_;
}

Task<>
Core::exec(std::uint64_t instrs)
{
    if (instrs == 0)
        co_return;
    instrs_ += static_cast<double>(instrs);
    myInstrs_ += static_cast<double>(instrs);
    energy_.coreInstrs(instrs);
    // Carry fractional issue slots across calls so that many short
    // exec() calls cost the same as one long one.
    execCarry_ += instrs;
    const Tick cycles = execCarry_ / params_.issueWidth;
    execCarry_ %= params_.issueWidth;
    if (cycles > 0)
        co_await Delay{eq_, cycles};
}

AccessReq
Core::beginMemOp(MemCmd cmd, Addr addr, std::uint64_t wdata, bool no_fetch,
                 bool use_once)
{
    instrs_ += 1;
    myInstrs_ += 1;
    energy_.coreInstrs(1);
    AccessReq req;
    req.cmd = cmd;
    req.addr = addr;
    req.wdata = wdata;
    req.tile = id_;
    req.noFetch = no_fetch;
    req.useOnce = use_once;
    return req;
}

void
Core::endMemOp(MemCmd cmd, Tick start)
{
    if (cmd == MemCmd::Load)
        loadLatency_.sample(ctxNow(eq_) - start);
}

Task<std::uint64_t>
Core::memOp(MemCmd cmd, Addr addr, std::uint64_t wdata, bool no_fetch,
            bool use_once)
{
    const AccessReq req = beginMemOp(cmd, addr, wdata, no_fetch, use_once);
    const Tick start = ctxNow(eq_);
    const std::uint64_t v = co_await mem_.access(req);
    endMemOp(cmd, start);
    co_return v;
}

namespace
{

/** One overlapped load/store slot: bounded by the MLP window. Awaits
 *  the access itself rather than a memOp frame. */
Task<>
windowedOp(Core &core, Semaphore &window, MemCmd cmd, Addr addr,
           std::uint64_t wdata, std::uint64_t *out, bool no_fetch,
           bool use_once)
{
    co_await window.acquire();
    const AccessReq req =
        core.beginMemOp(cmd, addr, wdata, no_fetch, use_once);
    const Tick start = ctxNow(core.eq());
    const std::uint64_t v = co_await core.mem().access(req);
    core.endMemOp(cmd, start);
    window.release();
    if (out)
        *out = v;
}

} // namespace

template <typename Op>
Task<>
Core::multiOp(MemCmd cmd, const std::vector<Op> &ops,
              std::vector<std::uint64_t> *out, std::uint64_t wdata,
              bool no_fetch, bool use_once)
{
    return overlapOps(eq_, ops, wdata, out,
                      [this, cmd, no_fetch, use_once](
                          Addr addr, std::uint64_t data,
                          std::uint64_t *slot_out) {
                          return windowedOp(*this, loadWindow_, cmd, addr,
                                            data, slot_out, no_fetch,
                                            use_once);
                      });
}

Task<>
Core::rmoAdd(Addr addr, std::uint64_t delta)
{
    instrs_ += 1;
    myInstrs_ += 1;
    energy_.coreInstrs(1);
    // Issue occupies a store-buffer entry; the core continues once the
    // entry is claimed (relaxed ordering).
    co_await storeBuffer_.acquire();
    rmoOutstanding_.add();
    spawn(mem_.remoteAtomicAdd(id_, addr, delta), [this]() {
        storeBuffer_.release();
        rmoOutstanding_.done();
    });
    // One-cycle issue slot.
    co_await Delay{eq_, 1};
}

Task<>
Core::rmoDrain()
{
    co_await rmoOutstanding_.wait();
}

Task<>
Core::mispredict()
{
    ++mispredicts_;
    co_await Delay{eq_, params_.mispredictPenalty};
}

} // namespace tako
