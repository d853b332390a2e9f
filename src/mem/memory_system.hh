/**
 * @file
 * The tiled-CMP memory hierarchy: per-tile L1d + engine L1d + private L2,
 * banked inclusive shared L3 with a MESI directory, memory controllers,
 * and the täkō trigger paths (onMiss / onEviction / onWriteback).
 *
 * Timing model
 * ------------
 * Each access is a transaction: a coroutine that walks the hierarchy,
 * charging array/NoC/DRAM latencies on the global event queue and holding
 * per-line locks to serialize same-line transactions (which also provides
 * MSHR-style merging and the paper's per-address callback locking).
 * Directory state changes commit atomically at event granularity; remote
 * invalidations/downgrades charge round-trip latencies. See DESIGN.md for
 * the full list of simplifications.
 *
 * Functional model
 * ----------------
 * Data values live in two BackingStores (real and phantom) and are
 * mutated at access-commit events; caches simulate tags/coherence/timing
 * only. Phantom lines exist in the store only while cached: they are
 * zeroed at fill (before onMiss) and cleared at final eviction (after
 * capture for the eviction callback), matching the paper's semantics.
 */

#ifndef TAKO_MEM_MEMORY_SYSTEM_HH
#define TAKO_MEM_MEMORY_SYSTEM_HH

#include <array>
#include <coroutine>
#include <memory>
#include <string>
#include <vector>

#include "energy/energy.hh"
#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "mem/lock_table.hh"
#include "mem/mem_ctrl.hh"
#include "mem/morph_types.hh"
#include "noc/mesh.hh"
#include "sim/addr_map.hh"
#include "sim/event_queue.hh"
#include "sim/record.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace tako
{

class Domains;

struct MemParams
{
    unsigned tiles = 16;

    std::uint64_t l1Size = 32 * 1024;
    unsigned l1Ways = 8;
    Tick l1Lat = 3;

    std::uint64_t engL1Size = 8 * 1024;
    unsigned engL1Ways = 4;
    Tick engL1Lat = 1;

    std::uint64_t l2Size = 128 * 1024;
    unsigned l2Ways = 8;
    Tick l2TagLat = 2;
    Tick l2DataLat = 4;
    ReplPolicy l2Repl = ReplPolicy::Trrip;

    std::uint64_t l3BankSize = 512 * 1024;
    unsigned l3Ways = 16;
    Tick l3TagLat = 3;
    Tick l3DataLat = 5;
    ReplPolicy l3Repl = ReplPolicy::Trrip;

    unsigned memCtrls = 4;
    Tick memLat = 100;
    /** 11.8 GB/s per controller at 2.4 GHz. */
    double memBytesPerCycle = 11.8 / 2.4;

    unsigned coreMshrs = 16;
    unsigned engineMshrs = 8;

    bool prefetchEnable = true;
    unsigned prefetchDegree = 8;

    /**
     * Sample per-transaction latency breakdowns into mem.breakdown.*
     * histograms. Off by default: six histogram updates per demand
     * access are measurable on the L1-hit fast path, so — like
     * observation records and the time-series sampler — you pay only
     * when you ask. takosim and the observability tests turn it on.
     */
    bool latBreakdown = false;
};

enum class MemCmd
{
    Load,
    Store,
    AtomicAdd,  ///< local atomic fetch-and-add (needs M state)
    AtomicSwap, ///< local atomic exchange (needs M state)
};

struct AccessReq
{
    MemCmd cmd = MemCmd::Load;
    Addr addr = 0;
    std::uint64_t wdata = 0;
    int tile = 0;
    bool fromEngine = false;
    bool prefetch = false;
    /**
     * Streaming (non-temporal / write-combining) store: on a miss the
     * line is allocated in M state without fetching it from memory.
     * Used for sequential append buffers (bins, journals, logs).
     */
    bool noFetch = false;
    /**
     * Use-once (non-temporal) load hint: fills insert at distant
     * re-reference priority so streaming reads (bin drains, log
     * replays) do not displace the resident working set.
     */
    bool useOnce = false;
    /**
     * Level of the täkō callback issuing this access (-1: not a
     * callback). Used to enforce the Sec. 4.3 restriction that callbacks
     * may not access data with a Morph at the same or a higher level.
     */
    int callbackLevel = -1;
};

/**
 * Per-transaction latency attribution. Every co_await on an access's
 * critical path is charged to exactly one component, so the components
 * always sum to the transaction's end-to-end latency. Aggregated into
 * the mem.breakdown.* histograms.
 */
struct LatBreakdown
{
    Tick cache = 0;        ///< tag/data array latencies (L1/L2/L3)
    Tick noc = 0;          ///< mesh traversals incl. coherence round trips
    Tick lockWait = 0;     ///< line locks, MSHRs, victim-way stalls
    Tick dram = 0;         ///< memory-controller queue + access
    Tick callbackWait = 0; ///< blocked on a täkō onMiss callback

    Tick
    sum() const
    {
        return cache + noc + lockWait + dram + callbackWait;
    }
};

class MemorySystem
{
  public:
    /**
     * @p dom routes every inter-tile movement (NoC walks, directory
     * messages, DRAM pinning) so the hierarchy can be partitioned across
     * shard domains; a monolithic run passes a single-domain Domains and
     * executes the identical code on one queue. @p rec receives the
     * observation records (demand issue, lookups, transactions, DRAM).
     */
    MemorySystem(const MemParams &params, Domains &dom, EventQueue &eq,
                 StatsRegistry &stats, EnergyModel &energy, Mesh &noc,
                 Recorder &rec);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    void setMorphResolver(const MorphResolver *resolver)
    {
        resolver_ = resolver;
    }

    void setCallbackSink(CallbackSink *sink) { sink_ = sink; }

    /** Where this hierarchy (and its engines) emit observation records. */
    Recorder &recorder() { return rec_; }

    const MemParams &params() const { return params_; }

    BackingStore &realStore() { return realStore_; }
    BackingStore &phantomStore() { return phantomStore_; }

    /** Store backing @p addr (phantom ranges vs. real memory). */
    BackingStore &
    storeFor(Addr addr)
    {
        return isPhantom(addr) ? phantomStore_ : realStore_;
    }

    /**
     * Full timing path for a core or engine access; resolves to the
     * loaded value (old value for atomics, 0 for stores/prefetches).
     */
    Task<std::uint64_t> access(AccessReq req);

    /**
     * Remote memory operation (relaxed atomic add, Sec. 8.1): executes
     * at the Morph's registered level without caching at the requester.
     * Falls back to a local atomic when no Morph covers the address.
     */
    Task<> remoteAtomicAdd(int tile, Addr addr, std::uint64_t delta);

    /**
     * flushData (Sec. 4.4): evict every cached line of the Morph's
     * range, triggering eviction callbacks, and wait for all of the
     * Morph's outstanding callbacks to retire.
     */
    Task<> flushMorphData(const MorphBinding &binding);

    /**
     * Flush an address range without triggering callbacks; used when
     * (un)registering Morphs over real addresses.
     */
    Task<> flushRangePlain(Addr base, std::uint64_t length);

    /** Label DRAM accesses by workload phase (Figs. 14/17). */
    void setPhase(const std::string &phase);

    std::uint64_t dramReads() const;
    std::uint64_t dramWrites() const;

    /** Count of transactions currently in flight (deadlock checks).
     *  Sums per-domain cells; call only while no domain is executing. */
    unsigned inflight() const;

    /** Sanity checks on tag/directory state (tests). */
    void checkInvariants() const;

    /** Line-lock tables, so tests can hold lines and stall fills. */
    LineLockTable &tileLocks(int tile) { return tiles_[tile]->tileLocks; }
    LineLockTable &bankLocks(int bank) { return tiles_[bank]->bankLocks; }

    /** Tag-state introspection for tests. */
    bool cachedInL2(int tile, Addr addr) const;
    bool cachedInL3(Addr addr) const;
    bool cachedAnywhere(Addr addr) const;
    Coh l2State(int tile, Addr addr) const;

  private:
    /** Per-tile model state: caches, bank locks, MSHRs. Owned by the
     *  tile's domain; coroutines must hop() to the tile before binding
     *  a reference, and re-bind after every hop away and back. */
    // takolint: domain-local
    struct TileState
    {
        TileState(const MemParams &p, EventQueue &eq)
            : l1(p.l1Size, p.l1Ways, ReplPolicy::Lru),
              engL1(p.engL1Size, p.engL1Ways, ReplPolicy::Lru),
              l2(p.l2Size, p.l2Ways, p.l2Repl),
              l3(p.l3BankSize, p.l3Ways, p.l3Repl),
              tileLocks(eq), bankLocks(eq),
              coreMshrs(eq, p.coreMshrs), engineMshrs(eq, p.engineMshrs)
        {
        }

        CacheArray l1;    ///< core L1d
        CacheArray engL1; ///< engine L1d (tile-clustered coherence)
        CacheArray l2;    ///< private unified L2
        CacheArray l3;    ///< the L3 bank that lives on this tile
        LineLockTable tileLocks; ///< private-hierarchy transactions
        LineLockTable bankLocks; ///< L3-bank transactions
        Semaphore coreMshrs;
        Semaphore engineMshrs;

        // Multi-stream prefetcher state: one detector per 4KB region,
        // so interleaved random traffic does not break stream detection.
        struct Stream
        {
            std::uint64_t region = 0;
            Addr lastLine = invalidAddr;
            /** High-water mark of issued prefetches (no re-issue). */
            Addr nextIssue = 0;
            unsigned run = 0;
            /** streamClock stamp of the last update; 0 = free slot.
             *  Stamps are unique, so the LRU pick has no ties and slot
             *  order never matters. */
            std::uint64_t lastUse = 0;
        };
        static constexpr std::size_t maxStreams = 16;
        std::array<Stream, maxStreams> streams{};
        std::uint64_t streamClock = 0;
        AddrSet inflightPrefetch;

        // Usefulness-based prefetch throttling: when prefetched lines
        // die unused (thrash), back the degree off; when they are
        // consumed, open it back up.
        unsigned pfDegree = 0; ///< 0 = initialize from params
        std::uint64_t pfIssuedWindow = 0;
        std::uint64_t pfUsefulWindow = 0;

        // rTLB-style one-entry MRU over the morph registry's interval
        // map: per-access resolve() hits here instead of walking the
        // std::map. Positive hits only; invalidated by comparing the
        // resolver's generation. Starts as an empty range.
        Addr morphMruBase = 1;
        Addr morphMruEnd = 0;
        const MorphBinding *morphMruMb = nullptr;
        std::uint64_t morphMruGen = ~std::uint64_t{0};
    };

    /** Outstanding eviction-callback tracking per morph (flushData). */
    struct Outstanding
    {
        std::uint64_t count = 0;
        std::vector<std::coroutine_handle<>> waiters;
    };

    bool isPhantom(Addr addr) const
    {
        return resolver_ && resolver_->isPhantomAddr(addr);
    }

    /**
     * Tile-aware resolve: consults tile @p tile's one-entry MRU before
     * the registry's interval map. Register/unregister bumps the
     * resolver generation, which invalidates every tile's entry.
     */
    const MorphBinding *
    resolve(int tile, Addr addr) const
    {
        if (!resolver_)
            return nullptr;
        TileState &t = *tiles_[static_cast<std::size_t>(tile)];
        const std::uint64_t gen = resolver_->generation();
        if (gen == t.morphMruGen && addr >= t.morphMruBase &&
            addr < t.morphMruEnd)
            return t.morphMruMb;
        const MorphBinding *mb = resolver_->resolve(addr);
        if (mb) {
            t.morphMruBase = mb->base;
            t.morphMruEnd = mb->base + mb->length;
            t.morphMruMb = mb;
            t.morphMruGen = gen;
        }
        return mb;
    }

    int bankOf(Addr line) const
    {
        return static_cast<int>(lineNumber(line) % params_.tiles);
    }

    unsigned ctrlOf(Addr line) const
    {
        return static_cast<unsigned>(lineNumber(line) % params_.memCtrls);
    }

    int ctrlTile(unsigned ctrl) const { return ctrlTiles_[ctrl]; }

    /**
     * Walk the NoC from @p src to @p dst, migrating the transaction to
     * the destination tile's domain; everything after the co_await runs
     * there. Charges the walk to @p bd 's noc component when given.
     */
    Mesh::Walk hop(int src, int dst, unsigned bytes,
                   LatBreakdown *bd = nullptr);

    /**
     * Directory-inflicted visit to @p tile on behalf of bank @p bank:
     * walks over, invalidates (or downgrades, @p downgrade) the tile's
     * copies of @p line in the tile's own domain, walks back, and merges
     * collected dirtiness into @p dirty_out at the bank. Spawned per
     * sharer with a Join at the bank, so remote cache mutations always
     * execute in their owner's domain while the bank waits the true
     * round-trip time.
     */
    Task<> coherenceVisit(int bank, int tile, Addr line, bool downgrade,
                          bool *dirty_out);

    /** Snapshot of an L3 way taken at eviction-decision time. */
    struct L3Evict
    {
        Addr line = 0;
        bool dirty = false;
        std::uint64_t copies = 0; ///< sharers | owner bit
    };

    /**
     * The slow tail of an L3 eviction: back-invalidation visits, data
     * capture (after the visits, so a remote M owner can no longer
     * write), morph callbacks, writeback/zero. Runs at the bank with the
     * victim line's bank lock held — by the caller (flushes), or, with
     * @p take_lock on the detached capacity path, by this task from its
     * first step to its last — so any refetch of the line blocks until
     * this completes, which is what keeps phantom zeroing ahead of the
     * next fill.
     */
    Task<> evictL3Core(int bank_tile, L3Evict ev, bool take_lock = false);

    /**
     * Ensure @p line is present in tile @p tile's L2 with at least
     * Shared (or Exclusive if @p want_m) permission, via the L3
     * directory. Assumes the tile line lock is held.
     */
    Task<> fetchIntoL2(int tile, Addr line, bool want_m, bool engine,
                       const MorphBinding *mb, bool no_fetch,
                       bool use_once, LatBreakdown &bd);

    /** DRAM read on the critical path (charges NoC + controller). */
    Task<> dramFetch(int bank_tile, Addr line,
                     LatBreakdown *bd = nullptr);

    /** DRAM write of an evicted dirty line; callers spawn it. */
    Task<> dramWriteback(int bank_tile, Addr line);

    /** Detached L2->L3 writeback traffic (timing/energy only). */
    Task<> writebackToL3Task(int tile, Addr line);

    /** Clear tile presence in the directory on a private eviction:
     *  posted to the home bank's domain one quantum ahead, tolerant of
     *  the L3 copy being gone by the time the message lands. */
    void updateDirectoryOnPrivateEvict(int tile, Addr line, bool dirty);

    /**
     * Insert into L2, evicting as needed. Returns null when every way
     * of the set is held by an in-flight transaction; the caller then
     * waits 4 cycles for one to drain and retries, charging the wait to
     * its breakdown's lockWait (hardware would stall the fill in an
     * MSHR).
     */
    CacheWay *insertL2(int tile, Addr line, Coh state,
                       const MorphBinding *mb, bool engine_fill,
                       bool use_once);

    /** Allocate an L3 way for @p line, detaching the victim's eviction;
     *  null when every way is held (same retry discipline). */
    CacheWay *allocL3Way(int bank_tile, Addr line, const MorphBinding *mb,
                         bool engine_fill);

    /** Insert into an L1, evicting as needed. */
    void insertL1(int tile, bool engine, Addr line, bool cold = false);

    /**
     * Evict an L2 way: invalidate L1 copies, update directory, trigger
     * the eviction callback for Private morph lines, write back dirty
     * real lines, clear final phantom lines.
     */
    void evictL2Way(int tile, CacheWay &w);

    /** Count the eviction, snapshot @p w for evictL3Core, and
     *  invalidate the way. */
    L3Evict snapL3Way(CacheWay &w);

    /**
     * Remove @p line from tile @p tile's private caches (L3 eviction or
     * invalidation). Returns true if a dirty copy was merged.
     */
    bool invalidateTileCopies(int tile, Addr line);

    /**
     * Spawn the onMiss callback for @p line on tile @p tile 's engine,
     * added to @p join: the miss waits for it with join.wait().
     */
    void spawnMissCallback(Join &join, int tile, Addr line,
                           const MorphBinding &mb);

    /**
     * A line of @p mb leaves tile @p tile 's cache at the morph's level
     * (its L2 for a PRIVATE morph, its L3 bank for a SHARED one):
     * capture the data, zero a phantom line, count the callback for
     * flushData and spawn onEviction/onWriteback on the tile's engine.
     * The line holds its WB-buffer entry until the callback retires;
     * the retirement then starts the writeback of a real @p dirty line
     * that @p leaves its level (to the L3 bank from a PRIVATE morph, to
     * DRAM from a SHARED one). A directory invalidation does not leave:
     * the bank keeps the dirtiness it merged.
     */
    void evictMorphLine(int tile, Addr line, const MorphBinding &mb,
                        bool dirty, bool leaves);

    /** An eviction callback of @p morph_id retired (flushData's count). */
    void evictionCallbackRetired(std::uint32_t morph_id);

    /** Push a lookup record for @p line in @p arr; callers gate on
     *  rec_.on(@p kind). @p flags adds Record::kEngine / kPrefetch to
     *  the hit bit. */
    void recordLookup(RecordKind kind, int tile, const CacheArray &arr,
                      Addr line, bool hit, std::uint8_t flags = 0);

    /** Apply the functional effect of a committed access. */
    std::uint64_t doFunctional(const AccessReq &req);

    /**
     * Per-access epilogue: fold @p bd into the mem.breakdown.*
     * histograms (demand accesses only) and push the MemDone record
     * when one is wanted.
     */
    void finishAccess(const AccessReq &req, Tick start,
                      const LatBreakdown &bd);

    /**
     * True when some consumer wants per-access observability: either
     * breakdown histograms (MemParams::latBreakdown) or MemDone records
     * (memory-transaction spans). The L1-hit fast path skips all
     * attribution work when this is false.
     */
    bool observing() const
    {
        return params_.latBreakdown || rec_.on(RecordKind::MemDone);
    }

    /** Stream-prefetcher bookkeeping; spawns prefetch transactions. */
    void maybePrefetch(int tile, Addr miss_line);

    MemParams params_;
    Domains &dom_;
    EventQueue &eq_;
    StatsRegistry &stats_;
    EnergyModel &energy_;
    Mesh &noc_;
    Recorder &rec_;

    const MorphResolver *resolver_ = nullptr;
    CallbackSink *sink_ = nullptr;

    BackingStore realStore_;
    BackingStore phantomStore_;

    std::vector<std::unique_ptr<TileState>> tiles_;
    std::vector<MemCtrl> ctrls_;
    std::vector<int> ctrlTiles_;

    /** Eviction-callback accounting, indexed by morph id (ids are
     *  dense from 1) and homed at tile 0's domain: every +1/-1 arrives
     *  as a posted message, so flushData's await and the retirements
     *  serialize on one stream regardless of partition. */
    std::vector<Outstanding> outstanding_;

    /** @p morph_id 's accounting cell, grown on first use (tile 0). */
    Outstanding &
    outstanding(std::uint32_t morph_id)
    {
        if (morph_id >= outstanding_.size())
            outstanding_.resize(morph_id + 1);
        return outstanding_[morph_id];
    }

    /** In-flight transaction counts, one cell per domain: a transaction
     *  begins and ends at its requester tile, so the cells balance. */
    std::vector<Padded<std::uint64_t>> inflightLanes_;

    /**
     * Per-controller phase replica: the phase label plus the
     * lazily-resolved "dram.reads.<phase>" handles, one lane per memory
     * controller. setPhase() posts the new label to each controller's
     * tile one quantum ahead; a DRAM event reads only its own
     * controller's lane.
     */
    struct alignas(64) PhaseLane
    {
        std::string phase = "default";
        Counter *reads = nullptr;
        Counter *writes = nullptr;
    };

    std::vector<PhaseLane> phaseLanes_;

    // Stats, as stable StatsRegistry handles cached at construction so
    // hot-path increments never re-hash the name.
    Counter *l1Hits_;
    Counter *l1Misses_;
    Counter *l2Hits_;
    Counter *l2Misses_;
    Counter *l3Hits_;
    Counter *l3Misses_;
    Counter *dramReads_;
    Counter *dramWrites_;
    Counter *invalidations_;
    Counter *downgrades_;
    Counter *l2Evictions_;
    Counter *l3Evictions_;
    Counter *rmoOps_;
    Counter *prefetchesIssued_;

    // Per-transaction latency breakdown (demand accesses; cycles each).
    Histogram *hBdCache_;
    Histogram *hBdNoc_;
    Histogram *hBdLock_;
    Histogram *hBdDram_;
    Histogram *hBdCbWait_;
    Histogram *hBdTotal_;
};

} // namespace tako

#endif // TAKO_MEM_MEMORY_SYSTEM_HH
