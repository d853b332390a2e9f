/**
 * @file
 * Trace replay: drive a takotrace record stream through the full
 * MemorySystem / morph path as a guest workload.
 *
 * Replay is deterministic by construction: the issue order is a pure
 * function of the trace. Records are partitioned across cores by
 * `tenant % numCores` (order-preserving within a core), each core's
 * stream batches runs of same-op records into multi-ops (bounded MLP,
 * like the hand-written workloads), and records wider than one word are
 * expanded to one access per touched cache line. Non-host metrics are
 * therefore bit-identical across -j1/-j8 and --shards (CI gates on it).
 */

#ifndef TAKO_TRACE_REPLAY_HH
#define TAKO_TRACE_REPLAY_HH

#include <functional>
#include <string>

#include "workloads/common.hh"

namespace tako::trace
{

struct TraceReplayResult
{
    bool ok = false;
    std::string error;
    RunMetrics metrics;
    std::uint64_t records = 0;     ///< records replayed
    std::uint64_t tenantsSeen = 0; ///< distinct tenant ids in the trace
};

/** Replay the takotrace-v1 file @p path on a system built from
 *  @p sys_cfg. */
TraceReplayResult runTraceReplay(const std::string &path,
                                 SystemConfig sys_cfg);

class TraceWriter;

/**
 * A SystemConfig::accessTracer that records any workload's core demand
 * accesses into @p w (open, with timestamps, and outliving the run) in
 * the *normalized* takotrace form: word-granular accesses tagged
 * tenant = issuing core, timestamped with the simulated tick. Replaying
 * a trace while recording it therefore yields its compact normalized
 * equivalent (ingest-text -> replay -> record).
 */
std::function<void(Tick, const AccessReq &)> recordAccesses(TraceWriter &w);

} // namespace tako::trace

#endif // TAKO_TRACE_REPLAY_HH
