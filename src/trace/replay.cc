#include "trace/replay.hh"

#include <utility>
#include <vector>

#include "sim/addr_map.hh"
#include "tako/registry.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

namespace tako::trace
{

namespace
{

/** Replay counters; registered at construction (stats lookups are
 *  constructor-only), incremented through the cached handles. */
struct ReplayStats
{
    explicit ReplayStats(StatsRegistry &stats)
        : records(stats.handle("trace.records", "records",
                               "trace records replayed")),
          lineOps(stats.handle("trace.line_ops", "accesses",
                               "accesses issued after line expansion")),
          reads(stats.handle("trace.reads", "accesses",
                             "replayed load accesses")),
          writes(stats.handle("trace.writes", "accesses",
                              "replayed store accesses")),
          atomics(stats.handle("trace.atomics", "accesses",
                               "replayed atomic accesses"))
    {
    }

    Counter *records;
    Counter *lineOps;
    Counter *reads;
    Counter *writes;
    Counter *atomics;
};

/** The part of a decoded record that replay reads: 16 B, half a
 *  TraceRecord, whose tenant only picks the core and whose ts no
 *  replay uses. */
struct ReplayRecord
{
    Addr addr = 0;
    std::uint32_t size = 8;
    TraceOp op = TraceOp::Load;
};
static_assert(sizeof(ReplayRecord) == 16);

bool
isRead(TraceOp op)
{
    return op == TraceOp::Load || op == TraceOp::StreamLoad;
}

bool
isAtomic(TraceOp op)
{
    return op == TraceOp::AtomicAdd || op == TraceOp::AtomicSwap;
}

/**
 * Expand one record into word-granular access addresses: the (word-
 * aligned) head address, then one access per additional touched line —
 * a record's footprint costs what it would cost a core to walk it.
 */
void
expandRecord(const ReplayRecord &rec, std::vector<Addr> &out)
{
    out.clear();
    out.push_back(rec.addr & ~static_cast<Addr>(7));
    const std::uint32_t size = rec.size ? rec.size : 1;
    const Addr firstLine = lineAlign(rec.addr);
    const Addr lastLine = lineAlign(rec.addr + size - 1);
    for (Addr l = firstLine + lineBytes; l != 0 && l <= lastLine;
         l += lineBytes)
        out.push_back(l);
}

/** Issue one same-op batch through the matching multi-op. */
Task<>
issueBatch(Guest &g, TraceOp op, const std::vector<Addr> &addrs)
{
    switch (op) {
      case TraceOp::Load:
        co_await g.loadMulti(addrs, nullptr);
        break;
      case TraceOp::StreamLoad:
        co_await g.streamLoadMulti(addrs, nullptr);
        break;
      case TraceOp::Store:
      case TraceOp::StreamStore: {
        // The trace carries no data values; store the address itself
        // (deterministic, and distinct per location).
        std::vector<std::pair<Addr, std::uint64_t>> writes;
        writes.reserve(addrs.size());
        for (Addr a : addrs)
            writes.emplace_back(a, a);
        if (op == TraceOp::Store)
            co_await g.storeMulti(writes);
        else
            co_await g.streamStoreMulti(writes);
        break;
      }
      case TraceOp::AtomicAdd: {
        std::vector<std::pair<Addr, std::uint64_t>> adds;
        adds.reserve(addrs.size());
        for (Addr a : addrs)
            adds.emplace_back(a, 1);
        co_await g.atomicAddMulti(adds);
        break;
      }
      case TraceOp::AtomicSwap:
        co_await g.atomicSwapMulti(addrs, 1, nullptr);
        break;
    }
}

/** One core's share of the trace, replayed in trace order. */
Task<>
replayCore(Guest &g, const std::vector<ReplayRecord> &recs,
           const TraceReplayConfig &cfg, ReplayStats &stats)
{
    std::vector<Addr> batch;
    std::vector<Addr> expanded;
    TraceOp curOp = TraceOp::Load;
    std::uint64_t pendingInstrs = 0;
    for (const ReplayRecord &rec : recs) {
        ++*stats.records;
        expandRecord(rec, expanded);
        for (Addr a : expanded) {
            if (!batch.empty() &&
                (rec.op != curOp || batch.size() >= cfg.batch)) {
                co_await g.exec(pendingInstrs);
                pendingInstrs = 0;
                co_await issueBatch(g, curOp, batch);
                batch.clear();
            }
            curOp = rec.op;
            batch.push_back(a);
            ++*stats.lineOps;
            if (isAtomic(rec.op))
                ++*stats.atomics;
            else if (isRead(rec.op))
                ++*stats.reads;
            else
                ++*stats.writes;
        }
        pendingInstrs += cfg.instrsPerRecord;
    }
    if (pendingInstrs)
        co_await g.exec(pendingInstrs);
    if (!batch.empty())
        co_await issueBatch(g, curOp, batch);
}

TraceOp
opOfReq(const AccessReq &req)
{
    switch (req.cmd) {
      case MemCmd::Store:
        return req.noFetch ? TraceOp::StreamStore : TraceOp::Store;
      case MemCmd::AtomicAdd:
        return TraceOp::AtomicAdd;
      case MemCmd::AtomicSwap:
        return TraceOp::AtomicSwap;
      case MemCmd::Load:
      default:
        return req.useOnce ? TraceOp::StreamLoad : TraceOp::Load;
    }
}

} // namespace

TraceReplayResult
runTraceReplay(const TraceReplayConfig &cfg, SystemConfig sys_cfg)
{
    TraceReplayResult res;

    // Decode the whole stream up front (host side): validation failures
    // surface before any simulation runs, and partitioning is trivial.
    TraceReader reader;
    if (!reader.open(cfg.path)) {
        res.error = reader.error();
        return res;
    }
    const unsigned cores = sys_cfg.mem.tiles;
    std::vector<std::vector<ReplayRecord>> perCore(cores);
    AddrSet tenants;
    TraceRecord rec;
    // Addresses at or above MorphRegistry::phantomBase (2^46) belong to
    // the täkō phantom space and require a morph registration; real
    // traces (Pin captures use 47-bit user-space addresses) may exceed
    // it. Fold them into the real space by masking the top bits — page
    // and line offsets, and locality within any region, are preserved.
    constexpr Addr realMask = MorphRegistry::phantomBase - 1;
    while (reader.next(rec)) {
        tenants.tryEmplace(rec.tenant);
        perCore[rec.tenant % cores].push_back(
            {rec.addr & realMask, rec.size, rec.op});
        ++res.records;
    }
    if (!reader.error().empty()) {
        res.error = reader.error();
        return res;
    }
    reader.close();
    res.tenantsSeen = tenants.size();
    if (res.records == 0) {
        res.error = "takotrace replay: '" + cfg.path +
                    "' holds no records";
        return res;
    }

    // Optional re-record of the replayed stream (normalized form).
    TraceWriter recorder;
    if (!cfg.recordPath.empty()) {
        TraceWriter::Options wopt;
        wopt.timestamps = true;
        if (!recorder.open(cfg.recordPath, wopt)) {
            res.error = recorder.error();
            return res;
        }
        TraceWriter *w = &recorder;
        sys_cfg.accessTracer = [w](Tick now, const AccessReq &req) {
            w->append({req.addr, 8, opOfReq(req),
                       static_cast<std::uint32_t>(req.tile),
                       static_cast<std::uint64_t>(now)});
        };
    }

    System sys(sys_cfg);
    ReplayStats stats(sys.stats());
    // The replay frontend knows its total work up front (decoded
    // above), so progress heartbeats can carry a done-fraction and an
    // ETA. Beats fire on domain 0's worker while the other workers bump
    // their own stat lanes, so — like the beat's event count — the
    // fraction covers domain 0 only: its lane of the records counter
    // against the records of the cores it owns. Observability only;
    // nothing feeds back into the run.
    if (sys.monitor()) {
        std::size_t owned = 0;
        for (unsigned c = 0; c < cores; ++c)
            if (sys.domains().domainOf(static_cast<int>(c)) == 0)
                owned += perCore[c].size();
        Counter *done = stats.records;
        const double total = static_cast<double>(owned);
        sys.monitor()->setFractionDone([done, total] {
            return total > 0 ? done->laneValue(0) / total : -1.0;
        });
    }
    for (unsigned c = 0; c < cores; ++c) {
        if (perCore[c].empty())
            continue;
        const std::vector<ReplayRecord> *recs = &perCore[c];
        sys.addThread(static_cast<int>(c),
                      [recs, &cfg, &stats](Guest &g) -> Task<> {
                          co_await replayCore(g, *recs, cfg, stats);
                      });
    }
    const Tick cycles = sys.run();
    res.metrics = collectMetrics(sys, cfg.label, cycles);
    res.metrics.extra["trace.records"] =
        static_cast<double>(res.records);
    res.metrics.extra["trace.tenants"] =
        static_cast<double>(res.tenantsSeen);

    if (!cfg.recordPath.empty()) {
        if (!recorder.close()) {
            res.error = recorder.error();
            return res;
        }
    }
    res.ok = true;
    return res;
}

} // namespace tako::trace
