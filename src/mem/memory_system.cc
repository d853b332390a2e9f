#include "mem/memory_system.hh"

#include <algorithm>

#include "sim/domains.hh"

namespace tako
{

namespace
{

/** @p tile 's bit in a directory sharer mask (tiles < 64). */
constexpr std::uint64_t
tileBit(unsigned tile)
{
    return std::uint64_t{1} << tile;
}

} // namespace

MemorySystem::MemorySystem(const MemParams &params, Domains &dom,
                           EventQueue &eq, StatsRegistry &stats,
                           EnergyModel &energy, Mesh &noc, Recorder &rec)
    : params_(params),
      dom_(dom),
      eq_(eq),
      stats_(stats),
      energy_(energy),
      noc_(noc),
      rec_(rec),
      l1Hits_(stats.handle("l1.hits", "accesses",
                           "demand hits in a core/engine L1d")),
      l1Misses_(stats.handle("l1.misses", "accesses",
                             "demand misses in a core/engine L1d")),
      l2Hits_(stats.handle("l2.hits", "accesses",
                           "hits in a private L2")),
      l2Misses_(stats.handle("l2.misses", "accesses",
                             "misses in a private L2")),
      l3Hits_(stats.handle("l3.hits", "accesses",
                           "hits in the shared L3")),
      l3Misses_(stats.handle("l3.misses", "accesses",
                             "misses in the shared L3")),
      dramReads_(stats.handle("dram.reads", "accesses",
                              "64B reads at the memory controllers")),
      dramWrites_(stats.handle("dram.writes", "accesses",
                               "64B writebacks at the controllers")),
      invalidations_(stats.handle("coherence.invalidations", "events",
                                  "directory-inflicted invalidations")),
      downgrades_(stats.handle("coherence.downgrades", "events",
                               "exclusive-owner downgrades to Shared")),
      l2Evictions_(stats.handle("l2.evictions", "lines",
                                "capacity/conflict evictions from L2")),
      l3Evictions_(stats.handle("l3.evictions", "lines",
                                "capacity/conflict evictions from L3")),
      rmoOps_(stats.handle("rmo.ops")),
      prefetchesIssued_(stats.handle("prefetch.issued")),
      hBdCache_(stats.histogramHandle(
          "mem.breakdown.cache", 64, 8, "cycles",
          "per-access cycles in cache tag/data arrays (L1/L2/L3)")),
      hBdNoc_(stats.histogramHandle(
          "mem.breakdown.noc", 64, 8, "cycles",
          "per-access cycles on the mesh, incl. coherence round trips")),
      hBdLock_(stats.histogramHandle(
          "mem.breakdown.lock_wait", 64, 8, "cycles",
          "per-access cycles waiting on line locks, MSHRs, victim ways")),
      hBdDram_(stats.histogramHandle(
          "mem.breakdown.dram", 64, 8, "cycles",
          "per-access cycles in memory-controller queue + access")),
      hBdCbWait_(stats.histogramHandle(
          "mem.breakdown.callback_wait", 64, 8, "cycles",
          "per-access cycles blocked on a tako onMiss callback")),
      hBdTotal_(stats.histogramHandle(
          "mem.breakdown.total", 64, 8, "cycles",
          "end-to-end access latency (sum of breakdown components)"))
{
    panic_if(params_.tiles != noc_.numTiles(),
             "tile count (%u) != mesh size (%u)", params_.tiles,
             noc_.numTiles());
    panic_if(params_.tiles != dom_.tiles(),
             "tile count (%u) != domain plan (%u)", params_.tiles,
             dom_.tiles());
    tiles_.reserve(params_.tiles);
    for (unsigned t = 0; t < params_.tiles; ++t)
        tiles_.push_back(std::make_unique<TileState>(params_, eq_));

    ctrls_.reserve(params_.memCtrls);
    for (unsigned c = 0; c < params_.memCtrls; ++c)
        ctrls_.emplace_back(params_.memLat, params_.memBytesPerCycle);

    // Spread controllers across the diagonal of the mesh.
    ctrlTiles_.resize(params_.memCtrls);
    for (unsigned c = 0; c < params_.memCtrls; ++c) {
        ctrlTiles_[c] =
            params_.memCtrls > 1
                ? static_cast<int>(c * (params_.tiles - 1) /
                                   (params_.memCtrls - 1))
                : 0;
    }

    inflightLanes_.resize(dom_.domainCount());
    phaseLanes_.resize(params_.memCtrls);

    setPhase("default");
}

void
MemorySystem::setPhase(const std::string &phase)
{
    if (!detail::execCtx.queue) {
        // Pre-run (constructor, test setup): no events are in flight, so
        // the replicas can change in place.
        for (PhaseLane &pl : phaseLanes_) {
            pl.phase = phase;
            pl.reads = nullptr;
            pl.writes = nullptr;
        }
        return;
    }
    // Mid-run: the label is only ever consumed at the controllers'
    // tiles, so broadcast one message per controller — each updates its
    // own controller's replica, making the switch tick exact and
    // identical at every shard count. Handles re-resolve lazily (the
    // counter is only registered for phases that actually touch DRAM).
    for (unsigned c = 0; c < params_.memCtrls; ++c) {
        dom_.post(ctrlTile(c), dom_.quantum(), [this, c, phase]() {
            PhaseLane &pl = phaseLanes_[c];
            pl.phase = phase;
            pl.reads = nullptr;
            pl.writes = nullptr;
        });
    }
}

std::uint64_t
MemorySystem::dramReads() const
{
    return static_cast<std::uint64_t>(dramReads_->value());
}

std::uint64_t
MemorySystem::dramWrites() const
{
    return static_cast<std::uint64_t>(dramWrites_->value());
}

unsigned
MemorySystem::inflight() const
{
    std::uint64_t n = 0;
    for (const Padded<std::uint64_t> &c : inflightLanes_)
        n += c.value;
    return static_cast<unsigned>(n);
}

// ---------------------------------------------------------------------
// Main access path
// ---------------------------------------------------------------------

Mesh::Walk
MemorySystem::hop(int src, int dst, unsigned bytes, LatBreakdown *bd)
{
    return noc_.walk(dom_, src, dst, bytes, bd ? &bd->noc : nullptr);
}

void
MemorySystem::recordLookup(RecordKind kind, int tile, const CacheArray &arr,
                           Addr line, bool hit, std::uint8_t flags)
{
    if (hit)
        flags |= Record::kHit;
    rec_.push({.tick = ctxNow(eq_),
               .addr = line,
               .w = {arr.setIndex(line), arr.numSets()},
               .tile = tile,
               .kind = kind,
               .flags = flags});
}

Task<std::uint64_t>
MemorySystem::access(AccessReq req)
{
    // Demand accesses only: prefetches, engine traffic, and täkō
    // callbacks are simulator-generated, not part of the guest's own
    // reference stream, so a recorded trace replays 1:1.
    if (rec_.on(RecordKind::DemandIssue) && !req.prefetch &&
        !req.fromEngine && req.callbackLevel < 0) {
        const auto flags = static_cast<std::uint8_t>(
            (req.noFetch ? Record::kNoFetch : 0) |
            (req.useOnce ? Record::kUseOnce : 0));
        rec_.push({.tick = ctxNow(eq_), .addr = req.addr,
                   .w = {req.wdata}, .tile = req.tile,
                   .kind = RecordKind::DemandIssue,
                   .op = static_cast<std::uint8_t>(req.cmd),
                   .flags = flags});
    }

    const Addr line = lineAlign(req.addr);
    const bool need_m = req.cmd != MemCmd::Load;
    const MorphBinding *mb = resolve(req.tile, req.addr);

    // Sec. 4.3 restriction: callbacks may not access data with a Morph
    // registered at the same or a higher level of the hierarchy.
    if (req.callbackLevel >= 0 && mb) {
        const bool forbidden =
            req.callbackLevel == 1 ||
            (req.callbackLevel == 0 && mb->level == MorphLevel::Private);
        panic_if(forbidden,
                 "callback at level %d accesses morphed address %#llx "
                 "(registered %s)",
                 req.callbackLevel, (unsigned long long)req.addr,
                 mb->level == MorphLevel::Private ? "PRIVATE" : "SHARED");
    }
    panic_if(isPhantom(req.addr) && !mb,
             "access to unregistered phantom address %#llx",
             (unsigned long long)req.addr);
    if (mb && mb->phantom && mb->level == MorphLevel::Private) {
        panic_if(req.tile != mb->tile,
                 "PRIVATE phantom address %#llx accessed from tile %d "
                 "(registered on tile %d)",
                 (unsigned long long)req.addr, req.tile, mb->tile);
    }

    ++inflightLanes_[ctxDomain()].value;
    const Tick t_start = ctxNow(eq_);
    TileState &t = *tiles_[req.tile];
    CacheArray &l1 = req.fromEngine ? t.engL1 : t.l1;
    // Engine accesses carry trrîp's low-priority tag (Sec. 5.2):
    // engine-filled lines never promote past long re-reference priority,
    // so they age out before core-reused data. Use-once accesses
    // additionally demote to eviction-first after the fill.
    const bool engine_repl = req.fromEngine;

    const Tick l1_lat = req.fromEngine ? params_.engL1Lat : params_.l1Lat;
    co_await Delay{eq_, l1_lat};
    if (req.fromEngine)
        energy_.engineL1Access();
    else
        energy_.l1Access();

    // The L1 way that can serve the access, or null: absent, or held
    // without the write permission a store or atomic needs.
    auto l1_hit = [&]() -> CacheWay * {
        CacheWay *w1 = l1.lookup(line);
        if (!w1 || !need_m)
            return w1;
        CacheWay *w2 = t.l2.lookup(line);
        panic_if(!w2, "L1 line %#llx missing from L2 (inclusion)",
                 (unsigned long long)line);
        return w2->coh == Coh::E || w2->coh == Coh::M ? w1 : nullptr;
    };

    // Record the demand L1 lookup once, at first probe, on tag presence
    // (a permission upgrade is not a content miss). Merged hits after
    // the tile lock re-probe but are not recorded again.
    if (!req.prefetch && rec_.on(RecordKind::L1Lookup))
        recordLookup(RecordKind::L1Lookup, req.tile, l1, line,
                     l1.lookup(line) != nullptr,
                     req.fromEngine ? Record::kEngine : std::uint8_t{0});

    if (CacheWay *w1 = req.prefetch ? nullptr : l1_hit()) {
        ++*l1Hits_;
        l1.touch(*w1, engine_repl);
        const std::uint64_t v = doFunctional(req);
        // Hit-path breakdowns are fully determined, so build them on the
        // spot only when someone is looking: keeping a LatBreakdown local
        // alive across the co_awaits above spills it into the coroutine
        // frame and costs ~4% on this fast path.
        if (observing()) {
            LatBreakdown bd;
            bd.cache = l1_lat;
            finishAccess(req, t_start, bd);
        }
        --inflightLanes_[ctxDomain()].value;
        co_return v;
    }
    ++*l1Misses_;

    // Serialize same-line transactions within the tile; this also merges
    // concurrent misses to the same line (MSHR-style).
    Tick t0 = ctxNow(eq_);
    co_await t.tileLocks.acquire(line);
    const Tick tile_lock_wait = ctxNow(eq_) - t0;

    if (CacheWay *w1 = req.prefetch ? nullptr : l1_hit()) {
        // A merged request filled the line while we waited.
        l1.touch(*w1, engine_repl);
        t.tileLocks.release(line);
        const std::uint64_t v = doFunctional(req);
        if (observing()) {
            LatBreakdown bd;
            bd.cache = l1_lat;
            bd.lockWait = tile_lock_wait;
            finishAccess(req, t_start, bd);
        }
        --inflightLanes_[ctxDomain()].value;
        co_return v;
    }

    // From here on the access is a real L2 lookup (and possibly a miss
    // walk); that is slow enough that unconditional attribution is noise.
    LatBreakdown bd;
    bd.cache = l1_lat;
    bd.lockWait = tile_lock_wait;

    co_await Delay{eq_, params_.l2TagLat};
    bd.cache += params_.l2TagLat;
    energy_.l2Access();

    CacheWay *w2 = t.l2.lookup(line);
    if (rec_.on(RecordKind::L2Lookup))
        recordLookup(RecordKind::L2Lookup, req.tile, t.l2, line,
                     w2 != nullptr,
                     req.prefetch ? Record::kPrefetch : std::uint8_t{0});

    // Train the stream prefetcher on demand core accesses (loads,
    // stores, and atomics all advance streams — e.g., HATS consumes its
    // edge stream with atomic exchanges) that miss the L2 or take the
    // first demand hit on a prefetched line.
    bool was_prefetched = false;
    if (!req.fromEngine && !req.prefetch) {
        if (!w2) {
            maybePrefetch(req.tile, line);
        } else if (w2->prefetched) {
            w2->prefetched = false;
            was_prefetched = true;
            ++t.pfUsefulWindow;
            maybePrefetch(req.tile, line);
        }
    }
    const bool l2_ok =
        w2 && (!need_m || w2->coh == Coh::E || w2->coh == Coh::M);

    if (l2_ok) {
        ++*l2Hits_;
        co_await Delay{eq_, params_.l2DataLat};
        bd.cache += params_.l2DataLat;
        t.l2.touch(*w2, engine_repl);
        if (req.useOnce)
            t.l2.demote(*w2);
        // Streaming (prefetched) data is used once: keep it near
        // eviction rather than letting it displace the working set.
        if (was_prefetched)
            w2->rrpv = CacheArray::rrpvLong;
    } else {
        ++*l2Misses_;
        Semaphore &mshrs = req.fromEngine ? t.engineMshrs : t.coreMshrs;
        t0 = ctxNow(eq_);
        co_await mshrs.acquire();
        bd.lockWait += ctxNow(eq_) - t0;
        if (!w2 && mb && mb->level == MorphLevel::Private && mb->phantom) {
            // Private phantom miss: allocate at L2, zero the line, and
            // let onMiss generate the data (Table 1 semantics).
            while (!insertL2(req.tile, line, Coh::M, mb, engine_repl,
                             req.useOnce)) {
                co_await Delay{eq_, 4};
                bd.lockWait += 4;
            }
            phantomStore_.zeroLine(line);
            if (mb->hasMiss && sink_) {
                Join join(eq_);
                spawnMissCallback(join, req.tile, line, *mb);
                t0 = ctxNow(eq_);
                co_await join.wait();
                bd.callbackWait += ctxNow(eq_) - t0;
            }
        } else {
            co_await fetchIntoL2(req.tile, line, need_m, engine_repl,
                                 mb, req.noFetch, req.useOnce, bd);
        }
        mshrs.release();
    }

    if (req.prefetch) {
        if (CacheWay *w = t.l2.lookup(line))
            w->prefetched = true;
    } else {
        insertL1(req.tile, req.fromEngine, line, req.useOnce);
    }

    t.tileLocks.release(line);
    const std::uint64_t v = req.prefetch ? 0 : doFunctional(req);
    if (observing())
        finishAccess(req, t_start, bd);
    --inflightLanes_[ctxDomain()].value;
    co_return v;
}

void
MemorySystem::finishAccess(const AccessReq &req, Tick start,
                           const LatBreakdown &bd)
{
    if (params_.latBreakdown && !req.prefetch) {
        hBdCache_->sample(bd.cache);
        hBdNoc_->sample(bd.noc);
        hBdLock_->sample(bd.lockWait);
        hBdDram_->sample(bd.dram);
        hBdCbWait_->sample(bd.callbackWait);
        hBdTotal_->sample(ctxNow(eq_) - start);
    }
    if (rec_.on(RecordKind::MemDone)) {
        const char *name = "load";
        if (req.prefetch)
            name = "prefetch";
        else if (req.cmd == MemCmd::Store)
            name = "store";
        else if (req.cmd != MemCmd::Load)
            name = "atomic";
        rec_.push({.tick = ctxNow(eq_), .addr = req.addr,
                   .w = {start, bd.cache, bd.noc, bd.lockWait, bd.dram,
                         bd.callbackWait},
                   .name = name, .tile = req.tile,
                   .kind = RecordKind::MemDone,
                   .flags = req.fromEngine ? Record::kEngine
                                           : std::uint8_t{0}});
    }
}

Task<>
MemorySystem::coherenceVisit(int bank, int tile, Addr line, bool downgrade,
                             bool *dirty_out)
{
    co_await hop(bank, tile, 8);
    bool dirty = false;
    if (downgrade) {
        co_await Delay{eq_, params_.l2TagLat + params_.l2DataLat};
        TileState &o = *tiles_[tile];
        if (CacheWay *ow = o.l2.lookup(line)) {
            if (ow->dirty) {
                dirty = true;
                ow->dirty = false;
            }
            ow->coh = Coh::S;
        }
        co_await hop(tile, bank, 72);
    } else {
        co_await Delay{eq_, params_.l2TagLat};
        dirty = invalidateTileCopies(tile, line);
        co_await hop(tile, bank, 8);
    }
    // Back at the bank: the flag lives in the bank-side caller's frame,
    // so every visit's merge executes in the bank's domain.
    *dirty_out |= dirty;
}

Task<>
MemorySystem::fetchIntoL2(int tile, Addr line, bool want_m, bool engine,
                          const MorphBinding *mb, bool no_fetch,
                          bool use_once, LatBreakdown &bd)
{
    const int bank = bankOf(line);
    const bool shared_morph = mb && mb->level == MorphLevel::Shared;

    panic_if(mb && mb->level == MorphLevel::Private && mb->phantom,
             "private phantom line %#llx reached the L3 path",
             (unsigned long long)line);

    co_await hop(tile, bank, 8, &bd);
    // Bank-side state is bound after the hop (H1): every access below
    // runs in the bank's domain.
    TileState &b = *tiles_[bank];
    Tick t0 = ctxNow(eq_);
    co_await b.bankLocks.acquire(line);
    bd.lockWait += ctxNow(eq_) - t0;
    co_await Delay{eq_, params_.l3TagLat};
    bd.cache += params_.l3TagLat;
    energy_.l3Access();

    CacheWay *w3 = b.l3.lookup(line);
    if (rec_.on(RecordKind::L3Lookup))
        recordLookup(RecordKind::L3Lookup, bank, b.l3, line, w3 != nullptr);
    if (!w3) {
        ++*l3Misses_;
        while (!(w3 = allocL3Way(bank, line, mb, engine))) {
            co_await Delay{eq_, 4};
            bd.lockWait += 4;
        }
        if (use_once)
            b.l3.demote(*w3);

        if (shared_morph && mb->phantom) {
            phantomStore_.zeroLine(line);
            if (mb->hasMiss && sink_) {
                Join join(eq_);
                spawnMissCallback(join, bank, line, *mb);
                t0 = ctxNow(eq_);
                co_await join.wait();
                bd.callbackWait += ctxNow(eq_) - t0;
            }
        } else if (shared_morph && mb->hasMiss && sink_) {
            // Real shared morph: onMiss overlaps the memory fetch
            // (Sec. 4.3: "onMiss begins executing in parallel with
            // reading addr"); the overlapped wait is attributed to
            // the callback component.
            Join join(eq_);
            join.add();
            spawn(dramFetch(bank, line), join.completion());
            spawnMissCallback(join, bank, line, *mb);
            t0 = ctxNow(eq_);
            co_await join.wait();
            bd.callbackWait += ctxNow(eq_) - t0;
        } else if (no_fetch && want_m && !mb) {
            // Streaming store: write-combining allocation, no memory
            // read. The line becomes dirty and writes back as usual.
            w3->dirty = true;
        } else {
            co_await dramFetch(bank, line, &bd);
        }
    } else {
        ++*l3Hits_;
        if (want_m) {
            // Invalidate all other copies — each invalidation is a real
            // visit to the sharer's tile, executing the cache mutation
            // in the sharer's own domain; the directory waits here (with
            // the bank lock held) for every acknowledgment.
            std::uint64_t others =
                w3->sharers & ~tileBit(static_cast<unsigned>(tile));
            if (w3->owner >= 0 && w3->owner != tile)
                others |= tileBit(static_cast<unsigned>(w3->owner));
            if (others) {
                Join join(eq_);
                bool vdirty = false;
                for (unsigned s = 0; s < params_.tiles; ++s) {
                    if (!(others & tileBit(s)))
                        continue;
                    ++*invalidations_;
                    join.add(1);
                    spawn(coherenceVisit(bank, static_cast<int>(s), line,
                                         false, &vdirty),
                          join.completion());
                }
                t0 = ctxNow(eq_);
                co_await join.wait();
                bd.noc += ctxNow(eq_) - t0;
                if (vdirty)
                    w3->dirty = true;
            }
        } else if (w3->owner >= 0 && w3->owner != tile) {
            // Downgrade the exclusive owner to Shared (one visit).
            ++*downgrades_;
            bool vdirty = false;
            t0 = ctxNow(eq_);
            co_await coherenceVisit(bank, w3->owner, line, true, &vdirty);
            bd.noc += ctxNow(eq_) - t0;
            if (vdirty)
                w3->dirty = true;
            w3->owner = -1;
        }
        co_await Delay{eq_, params_.l3DataLat};
        bd.cache += params_.l3DataLat;
        b.l3.touch(*w3, engine);
    }

    // Directory update commits here, with the bank lock held; the lock
    // stays held across the response hop and the L2 install below, so
    // grant and install are atomic with respect to every other
    // transaction on this line (an invalidation can never slip between
    // the directory saying "tile has it" and the tile's L2 agreeing).
    Coh grant;
    if (want_m) {
        w3->sharers = tileBit(static_cast<unsigned>(tile));
        w3->owner = static_cast<std::int8_t>(tile);
        grant = Coh::M;
    } else {
        const bool sole =
            (w3->sharers & ~tileBit(static_cast<unsigned>(tile))) == 0 &&
            (w3->owner < 0 || w3->owner == tile);
        w3->sharers |= tileBit(static_cast<unsigned>(tile));
        w3->owner = sole ? static_cast<std::int8_t>(tile)
                         : static_cast<std::int8_t>(-1);
        grant = sole ? Coh::E : Coh::S;
    }

    co_await hop(bank, tile, 72, &bd);
    // Back in the requesting tile's domain: bind its state here, not
    // before the hops (H1).
    TileState &t = *tiles_[tile];

    if (CacheWay *w2 = t.l2.lookup(line)) {
        // Upgrade in place.
        w2->coh = grant;
        t.l2.touch(*w2, engine);
        if (use_once)
            t.l2.demote(*w2);
    } else {
        while (!insertL2(tile, line, grant, mb, engine, use_once)) {
            co_await Delay{eq_, 4};
            bd.lockWait += 4;
        }
    }

    // Unlock message back to the bank's domain (one quantum, like any
    // other cross-domain signal — same delta at every shard count).
    dom_.post(bank, dom_.quantum(), [this, bank, line]() {
        tiles_[bank]->bankLocks.release(line);
    });
}

Task<>
MemorySystem::dramFetch(int bank_tile, Addr line, LatBreakdown *bd)
{
    const unsigned c = ctrlOf(line);
    co_await hop(bank_tile, ctrlTile(c), 8, bd);
    const Tick lat = ctrls_[c].access(ctxNow(eq_));
    if (rec_.on(RecordKind::DramRead))
        rec_.push({.tick = ctxNow(eq_), .addr = line, .w = {lat},
                   .tile = static_cast<std::int32_t>(c),
                   .kind = RecordKind::DramRead});
    ++*dramReads_;
    PhaseLane &pl = phaseLanes_[c];
    if (!pl.reads) [[unlikely]]
        // takolint: ok(S1, re-resolved once per phase change, then cached)
        pl.reads = stats_.handle("dram.reads." + pl.phase);
    ++*pl.reads;
    energy_.dramAccess();
    co_await Delay{eq_, lat};
    if (bd)
        bd->dram += lat;
    co_await hop(ctrlTile(c), bank_tile, 72, bd);
}

Task<>
MemorySystem::dramWriteback(int bank_tile, Addr line)
{
    const unsigned c = ctrlOf(line);
    co_await hop(bank_tile, ctrlTile(c), 72);
    const Tick lat = ctrls_[c].access(ctxNow(eq_));
    if (rec_.on(RecordKind::DramWrite))
        rec_.push({.tick = ctxNow(eq_), .addr = line, .w = {lat},
                   .tile = static_cast<std::int32_t>(c),
                   .kind = RecordKind::DramWrite});
    ++*dramWrites_;
    PhaseLane &pl = phaseLanes_[c];
    if (!pl.writes) [[unlikely]]
        // takolint: ok(S1, re-resolved once per phase change, then cached)
        pl.writes = stats_.handle("dram.writes." + pl.phase);
    ++*pl.writes;
    energy_.dramAccess();
    co_await Delay{eq_, lat};
}

Task<>
MemorySystem::writebackToL3Task(int tile, Addr line)
{
    // Timing/traffic only: the directory dirty bit was merged at
    // eviction-commit time (functional data is always current).
    co_await hop(tile, bankOf(line), 72);
    energy_.l3Access();
}

// ---------------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------------

CacheWay *
MemorySystem::insertL2(int tile, Addr line, Coh state,
                       const MorphBinding *mb, bool engine_fill,
                       bool use_once)
{
    TileState &t = *tiles_[tile];
    const bool morph_here = mb && mb->level == MorphLevel::Private;
    // Prefer victims that are not locked and not cached in an L1 above
    // (inclusive hierarchies avoid back-invalidating hot upper-level
    // lines); relax the L1-presence constraint if nothing qualifies.
    CacheWay *victim =
        t.l2.findVictim(line, mb != nullptr, [&](const CacheWay &w) {
            return !t.tileLocks.held(w.lineAddr) &&
                   !t.l1.lookup(w.lineAddr) &&
                   !t.engL1.lookup(w.lineAddr);
        });
    if (!victim) {
        victim = t.l2.findVictim(line, mb != nullptr,
                                 [&](const CacheWay &w) {
                                     return !t.tileLocks.held(w.lineAddr);
                                 });
    }
    if (!victim)
        return nullptr;
    if (victim->valid)
        evictL2Way(tile, *victim);
    t.l2.fill(*victim, line, morph_here, morph_here ? mb->id : 0,
              engine_fill);
    if (use_once)
        t.l2.demote(*victim);
    victim->coh = state;
    return victim;
}

CacheWay *
MemorySystem::allocL3Way(int bank_tile, Addr line, const MorphBinding *mb,
                         bool engine_fill)
{
    TileState &b = *tiles_[bank_tile];
    CacheWay *victim =
        b.l3.findVictim(line, mb != nullptr, [&](const CacheWay &w) {
            return !b.bankLocks.held(w.lineAddr);
        });
    if (!victim)
        return nullptr;
    if (victim->valid) {
        // The victim's slow eviction tail (back-invalidation visits,
        // callbacks, writeback) detaches so this fill can proceed; the
        // detached task takes the victim line's bank lock in this very
        // event, so a refetch of the victim cannot start — let alone
        // observe a stale phantom line — before the eviction retires.
        spawn(evictL3Core(bank_tile, snapL3Way(*victim), true));
    }
    b.l3.fill(*victim, line, mb != nullptr, mb ? mb->id : 0, engine_fill);
    return victim;
}

MemorySystem::L3Evict
MemorySystem::snapL3Way(CacheWay &w)
{
    ++*l3Evictions_;
    L3Evict ev;
    ev.line = w.lineAddr;
    ev.dirty = w.dirty;
    ev.copies = w.sharers;
    if (w.owner >= 0)
        ev.copies |= tileBit(static_cast<unsigned>(w.owner));
    w.invalidate();
    return ev;
}

Task<>
MemorySystem::evictL3Core(int bank_tile, L3Evict ev, bool take_lock)
{
    const Addr line = ev.line;
    bool dirty = ev.dirty;
    // Synchronous by construction: the victim scan only picks unlocked
    // lines, so this acquire cannot suspend, and the lock is in place
    // before any other event can run.
    if (take_lock)
        co_await tiles_[bank_tile]->bankLocks.acquire(line);

    // Inclusive L3: back-invalidate every private copy, each in its
    // owner's domain, and wait for the acknowledgments.
    if (ev.copies) {
        Join join(eq_);
        bool vdirty = false;
        for (unsigned s = 0; s < params_.tiles; ++s) {
            if (!(ev.copies & tileBit(s)))
                continue;
            join.add(1);
            spawn(coherenceVisit(bank_tile, static_cast<int>(s), line,
                                 false, &vdirty),
                  join.completion());
        }
        co_await join.wait();
        dirty |= vdirty;
    }

    // Capture strictly after the back-invalidations: until a remote M
    // owner has acknowledged, it can still be committing stores, and a
    // capture taken concurrently would not be partition-invariant.
    const MorphBinding *mb = resolve(bank_tile, line);
    if (mb && mb->level == MorphLevel::Shared) {
        evictMorphLine(bank_tile, line, *mb, dirty, true);
    } else if (!isPhantom(line)) {
        if (dirty)
            spawn(dramWriteback(bank_tile, line));
    } else {
        phantomStore_.zeroLine(line);
    }
    if (take_lock)
        tiles_[bank_tile]->bankLocks.release(line);
}

void
MemorySystem::insertL1(int tile, bool engine, Addr line, bool cold)
{
    TileState &t = *tiles_[tile];
    // The fill may have been squashed by a racing invalidation between
    // the directory grant and now; L1 must stay included in L2.
    if (!t.l2.lookup(line))
        return;
    CacheArray &l1 = engine ? t.engL1 : t.l1;
    if (l1.lookup(line))
        return;
    CacheWay *v = l1.findVictim(line, false);
    panic_if(!v, "no L1 victim");
    if (v->valid) {
        if (v->dirty) {
            if (CacheWay *w2 = t.l2.lookup(v->lineAddr))
                w2->dirty = true;
        }
        v->invalidate();
    }
    l1.fill(*v, line, false, 0, engine);
    // Use-once data inserts cold: it is the next victim unless touched.
    if (cold)
        l1.demote(*v);
}

void
MemorySystem::evictL2Way(int tile, CacheWay &w)
{
    TileState &t = *tiles_[tile];
    ++*l2Evictions_;
    const Addr line = w.lineAddr;

    // Inclusion: pull back L1 copies, merging dirtiness.
    for (CacheArray *l1 : {&t.l1, &t.engL1}) {
        if (CacheWay *w1 = l1->lookup(line)) {
            if (w1->dirty)
                w.dirty = true;
            w1->invalidate();
        }
    }

    const MorphBinding *mb = resolve(tile, line);
    const bool dirty = w.dirty;

    if (mb && mb->level == MorphLevel::Private) {
        // The line leaves the registered cache level. A phantom line
        // never reached the L3, so only a real one has a directory entry
        // to clear.
        if (!mb->phantom)
            updateDirectoryOnPrivateEvict(tile, line, dirty);
        evictMorphLine(tile, line, *mb, dirty, true);
    } else {
        // A shared phantom line cached privately has its home in the L3,
        // so the private copy just folds back (dirty merge at the
        // directory); a dirty real line also writes back.
        updateDirectoryOnPrivateEvict(tile, line, dirty);
        if (dirty && !isPhantom(line))
            spawn(writebackToL3Task(tile, line));
    }

    w.invalidate();
}

void
MemorySystem::updateDirectoryOnPrivateEvict(int tile, Addr line,
                                            bool dirty)
{
    // The directory lives at the line's home bank; the clear travels as
    // a message and commits in the bank's domain. By the time it lands
    // the L3 copy may be gone (concurrent eviction) — tolerate that, as
    // the monolithic model always has.
    dom_.post(bankOf(line), dom_.quantum(), [this, tile, line, dirty]() {
        TileState &b = *tiles_[bankOf(line)];
        CacheWay *w3 = b.l3.lookup(line);
        if (!w3)
            return;
        w3->sharers &= ~tileBit(static_cast<unsigned>(tile));
        if (w3->owner == tile)
            w3->owner = -1;
        if (dirty)
            w3->dirty = true;
    });
}

bool
MemorySystem::invalidateTileCopies(int tile, Addr line)
{
    TileState &t = *tiles_[tile];
    bool dirty = false;
    for (CacheArray *l1 : {&t.l1, &t.engL1}) {
        if (CacheWay *w1 = l1->lookup(line)) {
            dirty |= w1->dirty;
            w1->invalidate();
        }
    }
    if (CacheWay *w2 = t.l2.lookup(line)) {
        dirty |= w2->dirty;
        const MorphBinding *mb = resolve(tile, line);
        if (mb && mb->level == MorphLevel::Private) {
            // Losing the line at the registered level triggers the
            // eviction callback even when the eviction is inflicted by
            // the directory (inclusion victim / invalidation).
            evictMorphLine(tile, line, *mb, w2->dirty, false);
        }
        w2->invalidate();
    }
    return dirty;
}

void
MemorySystem::spawnMissCallback(Join &join, int tile, Addr line,
                                const MorphBinding &mb)
{
    join.add();
    spawn(sink_->callback(CallbackKind::Miss, tile, line, mb, LineData{}),
          join.completion());
}

void
MemorySystem::evictMorphLine(int tile, Addr line, const MorphBinding &mb,
                             bool dirty, bool leaves)
{
    const LineData data = storeFor(line).readLine(line);
    if (mb.phantom)
        phantomStore_.zeroLine(line);
    // The +1 posts now, from this very event, so a flusher that evicts
    // this line and then hops to the accounting home (tile 0) draws a
    // later key on the same stream — its arrival can never overtake the
    // increment.
    dom_.post(0, dom_.quantum(),
              [this, id = mb.id]() { ++outstanding(id).count; });
    const bool write_back = leaves && dirty && !mb.phantom;
    const bool to_dram = mb.level == MorphLevel::Shared;
    auto retire = [this, tile, line, id = mb.id, write_back, to_dram]() {
        if (write_back)
            spawn(to_dram ? dramWriteback(tile, line)
                          : writebackToL3Task(tile, line));
        evictionCallbackRetired(id);
    };
    if ((dirty ? mb.hasWriteback : mb.hasEviction) && sink_) {
        spawn(sink_->callback(dirty ? CallbackKind::Writeback
                                    : CallbackKind::Eviction,
                              tile, line, mb, data),
              std::move(retire));
    } else {
        dom_.post(tile, 0, std::move(retire));
    }
}

void
MemorySystem::evictionCallbackRetired(std::uint32_t morph_id)
{
    // All accounting commits at tile 0's domain, one quantum out — the
    // same latency the matching increment paid, so a -1 can never land
    // before its +1.
    dom_.post(0, dom_.quantum(), [this, morph_id]() {
        Outstanding &o = outstanding(morph_id);
        panic_if(o.count == 0,
                 "eviction callback retired with no record (morph %u)",
                 morph_id);
        if (--o.count == 0) {
            for (auto h : o.waiters)
                dom_.post(0, 0, [h]() { h.resume(); });
            o.waiters.clear();
        }
    });
}

// ---------------------------------------------------------------------
// RMO, flush
// ---------------------------------------------------------------------

Task<>
MemorySystem::remoteAtomicAdd(int tile, Addr addr, std::uint64_t delta)
{
    const MorphBinding *mb = resolve(tile, addr);
    ++*rmoOps_;
    if (!mb || mb->level != MorphLevel::Shared) {
        // No shared Morph: execute as a local atomic through the caches.
        AccessReq r;
        r.cmd = MemCmd::AtomicAdd;
        r.addr = addr;
        r.wdata = delta;
        r.tile = tile;
        co_await access(r);
        co_return;
    }

    const Addr line = lineAlign(addr);
    const int bank = bankOf(line);

    co_await hop(tile, bank, 16);
    // Bound after the hop (H1): the whole read-modify-write below runs
    // in the bank's domain.
    TileState &b = *tiles_[bank];
    co_await b.bankLocks.acquire(line);
    co_await Delay{eq_, params_.l3TagLat};
    energy_.l3Access();

    CacheWay *w3 = b.l3.lookup(line);
    if (rec_.on(RecordKind::L3Lookup))
        recordLookup(RecordKind::L3Lookup, bank, b.l3, line, w3 != nullptr);
    if (!w3) {
        ++*l3Misses_;
        while (!(w3 = allocL3Way(bank, line, mb, false)))
            co_await Delay{eq_, 4};
        if (mb->phantom) {
            // Phantom miss makes no request down the hierarchy: onMiss
            // initializes the line (e.g., PHI's identity element).
            phantomStore_.zeroLine(line);
            if (mb->hasMiss && sink_) {
                Join join(eq_);
                spawnMissCallback(join, bank, line, *mb);
                co_await join.wait();
            }
        } else {
            co_await dramFetch(bank, line);
        }
    } else {
        ++*l3Hits_;
        co_await Delay{eq_, params_.l3DataLat};
        b.l3.touch(*w3, false);
    }

    storeFor(addr).fetchAdd64(addr, delta);
    w3->dirty = true;
    b.bankLocks.release(line);
    // Completion ack travels back so the issuing core's store buffer
    // releases in its own domain.
    co_await hop(bank, tile, 8);
}

Task<>
MemorySystem::flushMorphData(const MorphBinding &binding)
{
    // The flush controller walks the hierarchy; remember where the
    // caller lives so the coroutine finishes back in its domain.
    const int home = dom_.ctxTile(0);
    const Addr base = binding.base;
    const std::uint64_t len = binding.length;
    auto in_range = [base, len](Addr a) {
        return a >= base && a < base + len;
    };

    if (binding.level == MorphLevel::Private) {
        co_await dom_.hopTo(binding.tile, dom_.quantum());
        TileState &t = *tiles_[binding.tile];
        // Tag-array walk cost (Sec. 4.4): the controller scans its sets.
        co_await Delay{eq_, t.l2.numSets() / 4 + 1};
        std::vector<Addr> lines;
        t.l2.forEachValid([&](CacheWay &w) {
            if (in_range(w.lineAddr))
                lines.push_back(w.lineAddr);
        });
        std::sort(lines.begin(), lines.end());
        for (Addr line : lines) {
            co_await t.tileLocks.acquire(line);
            if (CacheWay *w = t.l2.lookup(line))
                evictL2Way(binding.tile, *w);
            t.tileLocks.release(line);
        }
    } else {
        for (unsigned bank = 0; bank < params_.tiles; ++bank) {
            co_await dom_.hopTo(static_cast<int>(bank), dom_.quantum());
            TileState &b = *tiles_[bank];
            co_await Delay{eq_, b.l3.numSets() / 4 + 1};
            std::vector<Addr> lines;
            b.l3.forEachValid([&](CacheWay &w) {
                if (in_range(w.lineAddr))
                    lines.push_back(w.lineAddr);
            });
            std::sort(lines.begin(), lines.end());
            for (Addr line : lines) {
                co_await b.bankLocks.acquire(line);
                if (CacheWay *w = b.l3.lookup(line))
                    co_await evictL3Core(static_cast<int>(bank),
                                         snapL3Way(*w));
                b.bankLocks.release(line);
            }
        }
        // Private copies of shared-morph lines were back-invalidated by
        // the L3 evictions (inclusion); nothing else to do.
    }

    // Block until every outstanding callback of this Morph retires
    // (flushData blocks the software thread, Sec. 4.4). The accounting
    // is homed at tile 0, so the wait happens there; because this hop
    // draws a later key than every +1 the evictions above posted, the
    // check cannot run before their increments land.
    co_await dom_.hopTo(0, dom_.quantum());
    struct OutstandingAwaiter
    {
        MemorySystem &ms;
        std::uint32_t id;

        bool
        await_ready() const
        {
            return ms.outstanding(id).count == 0;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ms.outstanding(id).waiters.push_back(h);
        }

        void await_resume() const noexcept {}
    };
    co_await OutstandingAwaiter{*this, binding.id};
    co_await dom_.hopTo(home, dom_.quantum());
}

Task<>
MemorySystem::flushRangePlain(Addr base, std::uint64_t length)
{
    const int home = dom_.ctxTile(0);
    auto in_range = [&](Addr a) { return a >= base && a < base + length; };
    // Evict from every L3 bank (back-invalidating private copies) ...
    for (unsigned bank = 0; bank < params_.tiles; ++bank) {
        co_await dom_.hopTo(static_cast<int>(bank), dom_.quantum());
        TileState &b = *tiles_[bank];
        std::vector<Addr> lines;
        b.l3.forEachValid([&](CacheWay &w) {
            if (in_range(w.lineAddr))
                lines.push_back(w.lineAddr);
        });
        for (Addr line : lines) {
            co_await b.bankLocks.acquire(line);
            if (CacheWay *w = b.l3.lookup(line))
                co_await evictL3Core(static_cast<int>(bank),
                                     snapL3Way(*w));
            b.bankLocks.release(line);
        }
    }
    // ... and any private-only (phantom) lines.
    for (unsigned tile = 0; tile < params_.tiles; ++tile) {
        co_await dom_.hopTo(static_cast<int>(tile), dom_.quantum());
        TileState &t = *tiles_[tile];
        std::vector<Addr> lines;
        t.l2.forEachValid([&](CacheWay &w) {
            if (in_range(w.lineAddr))
                lines.push_back(w.lineAddr);
        });
        for (Addr line : lines) {
            co_await t.tileLocks.acquire(line);
            if (CacheWay *w = t.l2.lookup(line))
                evictL2Way(static_cast<int>(tile), *w);
            t.tileLocks.release(line);
        }
    }
    co_await dom_.hopTo(home, dom_.quantum());
}

// ---------------------------------------------------------------------
// Functional commit, prefetcher, invariants
// ---------------------------------------------------------------------

std::uint64_t
MemorySystem::doFunctional(const AccessReq &req)
{
    BackingStore &st = storeFor(req.addr);
    const bool is_write = req.cmd != MemCmd::Load;
    std::uint64_t result = 0;
    switch (req.cmd) {
      case MemCmd::Load:
        result = st.read64(req.addr);
        break;
      case MemCmd::Store:
        st.write64(req.addr, req.wdata);
        break;
      case MemCmd::AtomicAdd:
        result = st.fetchAdd64(req.addr, req.wdata);
        break;
      case MemCmd::AtomicSwap:
        result = st.swap64(req.addr, req.wdata);
        break;
    }
    if (is_write) {
        const Addr line = lineAlign(req.addr);
        TileState &t = *tiles_[req.tile];
        CacheArray &mine = req.fromEngine ? t.engL1 : t.l1;
        CacheArray &other = req.fromEngine ? t.l1 : t.engL1;
        if (CacheWay *w1 = mine.lookup(line))
            w1->dirty = true;
        if (CacheWay *w2 = t.l2.lookup(line))
            w2->dirty = true;
        // Intra-tile snoop: the sibling L1's copy is invalidated so it
        // cannot serve stale-timed hits (clustered coherence, Sec. 4.3).
        if (CacheWay *wo = other.lookup(line))
            wo->invalidate();
    }
    return result;
}

void
MemorySystem::maybePrefetch(int tile, Addr miss_line)
{
    if (!params_.prefetchEnable)
        return;
    TileState &t = *tiles_[tile];

    constexpr std::uint64_t regionBytes = 4096;
    const std::uint64_t region = miss_line / regionBytes;

    auto find = [&t](std::uint64_t r) -> TileState::Stream * {
        for (TileState::Stream &s : t.streams) {
            if (s.lastUse != 0 && s.region == r)
                return &s;
        }
        return nullptr;
    };

    TileState::Stream *st = find(region);
    if (!st) {
        // A stream crossing into a fresh region continues its run.
        TileState::Stream *prev =
            find((miss_line - lineBytes) / regionBytes);
        unsigned run = 0;
        Addr next_issue = 0;
        if (prev && prev->lastLine == miss_line - lineBytes) {
            run = prev->run + 1;
            next_issue = prev->nextIssue;
            prev->lastUse = 0;
        }
        // A free slot, else the least recently used detector.
        st = &*std::min_element(
            t.streams.begin(), t.streams.end(),
            [](const TileState::Stream &a, const TileState::Stream &b) {
                return a.lastUse < b.lastUse;
            });
        *st = TileState::Stream{.region = region,
                                .nextIssue = next_issue,
                                .run = run};
    } else if (miss_line == st->lastLine + lineBytes) {
        ++st->run;
    } else if (miss_line != st->lastLine) {
        st->run = 0;
        st->nextIssue = 0;
    }
    st->lastLine = miss_line;
    st->lastUse = ++t.streamClock;
    if (st->run < 2)
        return;

    // Adaptive degree: throttle when prefetched lines die unused.
    if (t.pfDegree == 0)
        t.pfDegree = params_.prefetchDegree;
    if (t.pfIssuedWindow >= 256) {
        const double useful = static_cast<double>(t.pfUsefulWindow) /
                              static_cast<double>(t.pfIssuedWindow);
        if (useful < 0.5)
            t.pfDegree = std::max(1u, t.pfDegree / 2);
        else if (useful > 0.85)
            t.pfDegree =
                std::min(params_.prefetchDegree, t.pfDegree + 1);
        t.pfIssuedWindow = 0;
        t.pfUsefulWindow = 0;
    }

    // Issue only beyond the stream's high-water mark, so a demand miss
    // never re-requests lines the stream already prefetched (they may
    // have been evicted, but re-fetching them wholesale thrashes DRAM).
    const MorphBinding *mb = resolve(tile, miss_line);
    const Addr start = std::max(miss_line + lineBytes, st->nextIssue);
    const Addr end =
        miss_line + std::uint64_t(t.pfDegree) * lineBytes;
    for (Addr cand = start; cand <= end; cand += lineBytes) {
        if (resolve(tile, cand) != mb)
            break; // don't cross morph/range boundaries
        st->nextIssue = cand + lineBytes;
        if (t.inflightPrefetch.contains(cand) || t.l2.lookup(cand))
            continue;
        t.inflightPrefetch.tryEmplace(cand);
        ++*prefetchesIssued_;
        ++t.pfIssuedWindow;
        // Two words: std::function keeps the capture inline.
        spawn(access({.cmd = MemCmd::Load, .addr = cand, .tile = tile,
                      .prefetch = true}),
              [ts = tiles_[tile].get(), cand]() {
                  ts->inflightPrefetch.erase(cand);
              });
    }
}

void
MemorySystem::checkInvariants() const
{
    for (unsigned tile = 0; tile < params_.tiles; ++tile) {
        const TileState &t = *tiles_[tile];
        for (const CacheArray *l1 : {&t.l1, &t.engL1}) {
            for (unsigned s = 0; s < l1->numSets(); ++s) {
                for (const CacheWay &w : l1->set(s)) {
                    if (!w.valid)
                        continue;
                    panic_if(!t.l2.lookup(w.lineAddr),
                             "inclusion violation: L1 line %#llx not in "
                             "tile %u L2",
                             (unsigned long long)w.lineAddr, tile);
                }
            }
        }
        // trrîp reserve rule: no set may be entirely morph lines.
        for (unsigned s = 0; s < t.l2.numSets(); ++s) {
            bool ok = false;
            for (const CacheWay &w : t.l2.set(s)) {
                if (!w.valid || !w.morph)
                    ok = true;
            }
            panic_if(!ok, "tile %u L2 set %u is all-morph", tile, s);
        }
        for (unsigned s = 0; s < t.l3.numSets(); ++s) {
            bool ok = false;
            for (const CacheWay &w : t.l3.set(s)) {
                if (!w.valid || !w.morph)
                    ok = true;
            }
            panic_if(!ok, "bank %u L3 set %u is all-morph", tile, s);
        }
    }
}

bool
MemorySystem::cachedInL2(int tile, Addr addr) const
{
    return tiles_[tile]->l2.lookup(lineAlign(addr)) != nullptr;
}

bool
MemorySystem::cachedInL3(Addr addr) const
{
    const Addr line = lineAlign(addr);
    return tiles_[bankOf(line)]->l3.lookup(line) != nullptr;
}

bool
MemorySystem::cachedAnywhere(Addr addr) const
{
    if (cachedInL3(addr))
        return true;
    for (unsigned t = 0; t < params_.tiles; ++t) {
        if (cachedInL2(static_cast<int>(t), addr))
            return true;
    }
    return false;
}

Coh
MemorySystem::l2State(int tile, Addr addr) const
{
    const CacheWay *w = tiles_[tile]->l2.lookup(lineAlign(addr));
    return w ? w->coh : Coh::I;
}

} // namespace tako
