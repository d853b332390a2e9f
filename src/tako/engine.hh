/**
 * @file
 * Near-cache engines (Sec. 5.3) and the callback execution model.
 *
 * One Engine per tile runs all callbacks for that tile's L2 and L3 bank.
 * An engine consists of:
 *   - a hardware scheduler with a callback buffer (default 8 entries);
 *     requests past capacity wait in the cache's writeback buffer
 *     (modeled as an admission queue with occupancy stats),
 *   - per-address ordering: callbacks on the same address execute in
 *     arrival order (the cache controller locks the address, Sec. 4.3),
 *   - a bitstream cache mapping Morphs to loaded fabric configurations,
 *   - a reverse TLB (rTLB) translating cache-tag physical addresses back
 *     to virtual for callbacks (Sec. 6),
 *   - an execution substrate: the 5x5 dataflow fabric of the paper, an
 *     in-order core (evaluated and rejected in Sec. 9), or an idealized
 *     0-cycle engine.
 *
 * Engines access memory through their coherent engine-L1d, which is
 * modeled inside MemorySystem (tile-clustered coherence).
 */

#ifndef TAKO_TAKO_ENGINE_HH
#define TAKO_TAKO_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "mem/lock_table.hh"
#include "mem/memory_system.hh"
#include "sim/domains.hh"
#include "tako/morph.hh"

namespace tako
{

enum class EngineKind
{
    Dataflow, ///< spatial dataflow fabric (the täkō design)
    Inorder,  ///< single-issue in-order core near the cache
    Ideal,    ///< unlimited, instantaneous, energy-free compute
};

struct EngineParams
{
    EngineKind kind = EngineKind::Dataflow;
    unsigned fabricDim = 5;   ///< fabricDim x fabricDim PEs
    unsigned memPEs = 10;     ///< PEs with L1d ports (Table 3)
    Tick peLatency = 1;
    unsigned callbackBuffer = 8;
    unsigned maxConcurrent = 8; ///< concurrent callbacks (tag matching)
    unsigned instrsPerPE = 16;
    unsigned tokensPerPE = 8;
    unsigned bitstreamCacheEntries = 4;
    Tick schedulerLat = 2; ///< enqueue + dispatch overhead

    unsigned rtlbEntries = 256;
    std::uint64_t pageBytes = 2 * 1024 * 1024; ///< 2MB pages (Sec. 9)
    Tick tlbLat = 1;
    Tick rtlbMissLat = 60;

    Tick interruptLat = 100; ///< user-space interrupt delivery

    unsigned totalPEs() const { return fabricDim * fabricDim; }
    unsigned intPEs() const { return totalPEs() - memPEs; }
};

class Engine;
class EngineCluster;

/**
 * Per-invocation context handed to callbacks: access to the triggering
 * line, engine memory ops, fabric compute, and interrupts.
 */
class EngineCtx
{
  public:
    EngineCtx(Engine &engine, const MorphBinding &binding,
              CallbackKind kind, Addr line, LineData captured);

    /** Triggering (virtual) line address. */
    Addr addr() const { return line_; }

    CallbackKind kind() const { return kind_; }
    bool dirty() const { return kind_ == CallbackKind::Writeback; }
    int tile() const;

    /** The System's queue, for Delay and Join (they schedule on the
     *  executing domain's queue); its clock is domain 0's. */
    EventQueue &eq() const;

    /** Simulated time at the engine's own domain (any shard count). */
    Tick now() const;

    const MorphBinding &binding() const { return binding_; }

    /**
     * Read word @p i of the triggering line. Misses see the line in the
     * adjacent data array (zeroed for phantom); evictions see the data
     * captured when the line left the cache.
     */
    std::uint64_t lineWord(unsigned i) const;

    /**
     * Write word @p i of the triggering line (onMiss fills the line).
     * Only valid for Miss callbacks: evicted lines are gone.
     */
    void setLineWord(unsigned i, std::uint64_t value);

    /** Captured contents for eviction/writeback callbacks. */
    const LineData &capturedLine() const { return captured_; }

    /** Coherent memory ops through the engine L1d. */
    Task<std::uint64_t> load(Addr addr);
    Task<> store(Addr addr, std::uint64_t value);
    Task<std::uint64_t> atomicAdd(Addr addr, std::uint64_t delta);

    /**
     * Issue independent loads, overlapped up to the engine's memory
     * ports (dataflow/ideal) or serialized (in-order). Results are
     * written to @p out (if non-null) in argument order.
     */
    Task<> loadMulti(const std::vector<Addr> &addrs,
                     std::vector<std::uint64_t> *out);

    /**
     * Use-once loads: data that is dead after this callback (gathers,
     * pointer chasing) inserts cold/distant at every level so it cannot
     * displace the engine's hot state (e.g., HATS's visited bitmap).
     */
    Task<> streamLoadMulti(const std::vector<Addr> &addrs,
                           std::vector<std::uint64_t> *out);

    /** Independent stores, overlapped like loadMulti. */
    Task<> storeMulti(const std::vector<std::pair<Addr, std::uint64_t>>
                          &writes);

    /**
     * Streaming (write-combining) stores for append buffers: misses
     * allocate without reading memory. This is how PHI's bins, HATS's
     * edge log, and the NVM journal stay at a fraction of a memory
     * access per callback (Sec. 8.1: 0.17 accesses per onWriteback).
     */
    Task<> streamStoreMulti(
        const std::vector<std::pair<Addr, std::uint64_t>> &writes);

    /** Charge fabric compute: @p instrs ops with critical path @p depth. */
    Task<> compute(unsigned instrs, unsigned depth);

    /** Raise a user-space interrupt on @p core (Sec. 8.4). */
    void interrupt(int core);

  private:
    Engine &engine_;
    const MorphBinding &binding_;
    CallbackKind kind_;
    Addr line_;
    LineData captured_;
};

/** One near-cache engine (per tile). */
class Engine
{
  public:
    Engine(int tile, const EngineParams &params, MemorySystem &mem,
           Domains &dom, EventQueue &eq, StatsRegistry &stats,
           EnergyModel &energy, EngineCluster &cluster);

    int tile() const { return tile_; }
    const EngineParams &params() const { return params_; }
    EventQueue &eq() const { return eq_; }
    MemorySystem &mem() const { return mem_; }

    /**
     * Full lifecycle of one callback, from enqueue to retire; the
     * caller spawns it. @p binding outlives the run (registry storage).
     */
    Task<> runCallback(CallbackKind kind, Addr line,
                       const MorphBinding *binding, LineData data);

    /** Fabric compute latency for (instrs, depth). */
    Tick computeLatency(unsigned instrs, unsigned depth) const;

    /** Engine memory port concurrency (loadMulti overlap). */
    unsigned memPorts() const;

    bool inorder() const { return params_.kind == EngineKind::Inorder; }

    void chargeCompute(unsigned instrs);

    /** The request of one engine memory op (MemorySystem::access). */
    AccessReq request(MemCmd cmd, Addr addr, std::uint64_t wdata,
                      int callback_level, bool no_fetch = false,
                      bool use_once = false) const;

    Semaphore &memPortSem() { return memPortSem_; }

    void raiseInterrupt(int core, Addr line);

  private:
    /**
     * A map-plus-clock LRU set: key -> last use. Ordered (takolint D1):
     * the victim scan iterates, and hash order would decide ties.
     */
    template <typename Key>
    struct LruSet
    {
        std::map<Key, std::uint64_t> lastUse;
        std::uint64_t clock = 0;

        /** Touch @p key: true on a hit. On a miss, evict the least
         *  recently used entry when @p capacity is reached, then insert
         *  @p key. */
        bool
        touch(Key key, std::size_t capacity)
        {
            auto it = lastUse.find(key);
            if (it != lastUse.end()) {
                it->second = ++clock;
                return true;
            }
            if (lastUse.size() >= capacity) {
                lastUse.erase(std::min_element(
                    lastUse.begin(), lastUse.end(),
                    [](const auto &a, const auto &b) {
                        return a.second < b.second;
                    }));
            }
            lastUse.emplace(key, ++clock);
            return false;
        }
    };

    /** rTLB lookup; returns added latency. */
    Tick rtlbLookup(Addr line);

    /** Bitstream cache lookup; returns load latency (0 on hit). */
    Tick bitstreamLookup(const MorphBinding &binding);

    int tile_;
    EngineParams params_;
    MemorySystem &mem_;
    Domains &dom_;
    EventQueue &eq_;
    StatsRegistry &stats_;
    EnergyModel &energy_;
    EngineCluster &cluster_;

    Semaphore bufferSlots_;  ///< callback buffer entries
    Semaphore fabricSlots_;  ///< concurrent callbacks on the fabric
    Semaphore memPortSem_;   ///< memory PEs
    LineLockTable addrOrder_; ///< per-address callback ordering

    LruSet<std::uint64_t> rtlb_;      ///< rTLB: page -> last use
    LruSet<std::uint32_t> bitstreams_; ///< bitstream cache: morph id

    Counter *cbMiss_;
    Counter *cbEviction_;
    Counter *cbWriteback_;
    Counter *engineInstrs_;
    Counter *rtlbHits_;
    Counter *rtlbMisses_;
    Counter *bitstreamLoads_;
    Histogram *missLatency_;
    Histogram *bufferWait_;
    Histogram *hBdAddrWait_;
    Histogram *hBdDispatch_;
    Histogram *hBdXlate_;
    Histogram *hBdBody_;
    Histogram *hBdTotal_;
};

/**
 * All engines of the CMP; implements the CallbackSink the memory
 * hierarchy spawns callbacks from, and routes interrupts back to cores.
 */
class EngineCluster : public CallbackSink
{
  public:
    using InterruptHandler = std::function<void(int core, Addr line)>;

    EngineCluster(unsigned tiles, const EngineParams &params,
                  MemorySystem &mem, Domains &dom, EventQueue &eq,
                  StatsRegistry &stats, EnergyModel &energy);

    Engine &engine(int tile) { return *engines_[tile]; }
    const EngineParams &params() const { return params_; }

    /** Tile @p tile 's runCallback Task, returned unstarted: the
     *  forwarding costs no frame. */
    Task<> callback(CallbackKind kind, int tile, Addr line_addr,
                    const MorphBinding &binding, LineData data) override;

    void setInterruptHandler(InterruptHandler h)
    {
        interruptHandler_ = std::move(h);
    }

    void
    deliverInterrupt(int core, Addr line)
    {
        if (interruptHandler_)
            interruptHandler_(core, line);
    }

  private:
    EngineParams params_;
    std::vector<std::unique_ptr<Engine>> engines_;
    InterruptHandler interruptHandler_;
};

} // namespace tako

#endif // TAKO_TAKO_ENGINE_HH
