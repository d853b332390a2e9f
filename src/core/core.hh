/**
 * @file
 * Core model and the guest-thread API.
 *
 * Cores execute guest programs written as coroutines over the Guest API.
 * Rather than model a full out-of-order pipeline, the core captures the
 * three OOO properties the paper's results depend on (Secs. 7, 9):
 *
 *  - issue width: exec(n) retires n instructions at issueWidth/cycle;
 *  - memory-level parallelism: loadMulti() overlaps independent loads up
 *    to the outstanding-load window (the ROB/MSHR bound); plain load()
 *    is a dependent load and blocks;
 *  - branch mispredictions: mispredict() charges the flush penalty.
 *
 * Remote memory operations (rmoAdd) model the relaxed atomics PHI pushes
 * through the hierarchy (Sec. 8.1): fire-and-forget, bounded by a store
 * buffer.
 */

#ifndef TAKO_CORE_CORE_HH
#define TAKO_CORE_CORE_HH

#include <functional>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/random.hh"
#include "tako/registry.hh"

namespace tako
{

struct CoreParams
{
    unsigned issueWidth = 3;          ///< Goldmont: 3-wide
    unsigned maxOutstandingLoads = 10; ///< MLP window
    Tick mispredictPenalty = 12;
    unsigned storeBufferEntries = 16; ///< outstanding RMOs/stores
};

class Core;

/** The software-visible API guest threads program against. */
class Guest
{
  public:
    explicit Guest(Core &core) : core_(core) {}

    int id() const;
    Tick now() const;
    MemorySystem &mem() const;
    Rng &rng();

    /** Retire @p instrs non-memory instructions. */
    Task<> exec(std::uint64_t instrs);

    /** Dependent 8-byte load; blocks until the value returns. */
    Task<std::uint64_t> load(Addr addr);

    /** 8-byte store (write-allocate). */
    Task<> store(Addr addr, std::uint64_t value);

    /** Local atomic fetch-add (LL/SC class); returns the old value. */
    Task<std::uint64_t> atomicAdd(Addr addr, std::uint64_t delta);

    /** Local atomic exchange; returns the old value. */
    Task<std::uint64_t> atomicSwap(Addr addr, std::uint64_t value);

    /**
     * Independent loads overlapped up to the MLP window; results land
     * in @p out (if non-null) in argument order.
     */
    Task<> loadMulti(const std::vector<Addr> &addrs,
                     std::vector<std::uint64_t> *out);

    /**
     * Use-once (non-temporal) loads for streaming reads (bin drains,
     * log replays): fills insert near eviction so the stream does not
     * displace the resident working set.
     */
    Task<> streamLoadMulti(const std::vector<Addr> &addrs,
                           std::vector<std::uint64_t> *out);

    /** Independent stores overlapped like loadMulti. */
    Task<> storeMulti(
        const std::vector<std::pair<Addr, std::uint64_t>> &writes);

    /**
     * Streaming (non-temporal) stores for sequential append buffers:
     * misses allocate without reading memory.
     */
    Task<> streamStoreMulti(
        const std::vector<std::pair<Addr, std::uint64_t>> &writes);

    /** Independent local atomic adds overlapped like loadMulti. */
    Task<> atomicAddMulti(
        const std::vector<std::pair<Addr, std::uint64_t>> &adds);

    /**
     * Independent atomic exchanges (all writing @p value), overlapped
     * like loadMulti; old values land in @p out.
     */
    Task<> atomicSwapMulti(const std::vector<Addr> &addrs,
                           std::uint64_t value,
                           std::vector<std::uint64_t> *out);

    /**
     * Relaxed remote atomic add (RMO, Sec. 8.1): issues and returns;
     * completion is bounded by the store buffer. Use rmoDrain() as the
     * fence.
     */
    Task<> rmoAdd(Addr addr, std::uint64_t delta);

    /** Wait for all outstanding RMOs from this core. */
    Task<> rmoDrain();

    /** Charge a branch misprediction. */
    Task<> mispredict();

    // --- täkō API (Fig. 8) -------------------------------------------
    Task<const MorphBinding *> registerPhantom(Morph &morph,
                                               MorphLevel level,
                                               std::uint64_t size);
    Task<const MorphBinding *> registerReal(Morph &morph, MorphLevel level,
                                            Addr base, std::uint64_t size);
    Task<> flushData(const MorphBinding *binding);
    Task<> unregister(const MorphBinding *binding);

    /** Interrupts delivered to this core since the last query. */
    std::uint64_t takeInterrupts();
    std::uint64_t interruptsSeen() const;

  private:
    Core &core_;
};

class Core
{
  public:
    Core(int id, const CoreParams &params, MemorySystem &mem,
         MorphRegistry &registry, StatsRegistry &stats,
         EnergyModel &energy, std::uint64_t seed);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    int id() const { return id_; }
    const CoreParams &params() const { return params_; }
    MemorySystem &mem() const { return mem_; }
    MorphRegistry &registry() const { return registry_; }
    Rng &rng() { return rng_; }
    Guest &guest() { return guest_; }

    /** Spawn @p fn as this core's guest thread. */
    void run(std::function<Task<>(Guest &)> fn);

    bool done() const { return running_ == 0; }
    unsigned running() const { return running_; }

    /** User-space interrupt delivery (side-channel defense, Sec. 8.4). */
    void postInterrupt(Addr line);

    std::uint64_t instrs() const
    {
        return static_cast<std::uint64_t>(myInstrs_.value());
    }

    // Guest-API implementation.
    Task<> exec(std::uint64_t instrs);
    Task<std::uint64_t> memOp(MemCmd cmd, Addr addr, std::uint64_t wdata,
                              bool no_fetch = false,
                              bool use_once = false);

    /** memOp's accounting before the access (instruction, energy);
     *  returns the request to issue. */
    AccessReq beginMemOp(MemCmd cmd, Addr addr, std::uint64_t wdata,
                         bool no_fetch, bool use_once);
    /** memOp's accounting after an access issued at @p start. */
    void endMemOp(MemCmd cmd, Tick start);

    /**
     * One access per element of @p ops (addresses, written with
     * @p wdata, or (address, data) pairs), overlapped up to the MLP
     * window; loaded values land in @p out (if non-null) in argument
     * order. Defined in core.cc, where the Guest API instantiates it.
     */
    template <typename Op>
    Task<> multiOp(MemCmd cmd, const std::vector<Op> &ops,
                   std::vector<std::uint64_t> *out, std::uint64_t wdata = 0,
                   bool no_fetch = false, bool use_once = false);
    Task<> rmoAdd(Addr addr, std::uint64_t delta);
    Task<> rmoDrain();
    Task<> mispredict();
    std::uint64_t
    takeInterrupts()
    {
        const auto n = pendingInterrupts_;
        pendingInterrupts_ = 0;
        return n;
    }
    std::uint64_t interruptsSeen() const { return interruptsSeen_; }

  private:
    int id_;
    CoreParams params_;
    MemorySystem &mem_;
    MorphRegistry &registry_;
    EnergyModel &energy_;
    Rng rng_;
    Guest guest_;

    Semaphore loadWindow_;
    Semaphore storeBuffer_;
    Join rmoOutstanding_;

    unsigned running_ = 0;
    std::uint64_t execCarry_ = 0;
    std::uint64_t pendingInterrupts_ = 0;
    std::uint64_t interruptsSeen_ = 0;

    Counter &instrs_;
    Counter &myInstrs_;
    Counter &mispredicts_;
    Counter &interrupts_;
    Histogram &loadLatency_;
};

} // namespace tako

#endif // TAKO_CORE_CORE_HH
