/**
 * @file
 * Per-thread execution context for domain-decomposed simulation.
 *
 * Every event in a decomposed run executes "at" a logical stream (a tile,
 * or the reserved system stream 0) inside one shard domain. The kernel
 * publishes that location here while the event's callback runs, and it
 * is the only place model code finds a queue or a clock: every wait and
 * every model-side time read goes through ctxQueue()/ctxNow()
 * (event_queue.hh), which panic when no event runs. So a memory
 * transaction that walks the NoC keeps running on the queue it is
 * executing on, and no component carries an EventQueue reference.
 *
 * The context is thread-local: one worker thread executes at most one
 * domain's events at a time (the sharded executor's windows are
 * per-domain sequential), so a plain write in EventQueue::step() is
 * race-free. Monolithic runs use the same mechanism with one domain.
 */

#ifndef TAKO_SIM_EXEC_CTX_HH
#define TAKO_SIM_EXEC_CTX_HH

#include <cstdint>

#include "sim/types.hh"

namespace tako
{

class EventQueue;

/** Where the current event is executing: queue, shard domain, stream,
 *  and the event's own place (key) in the (tick, key) order. */
struct ExecCtx
{
    EventQueue *queue = nullptr; ///< queue whose event is running
    std::uint32_t domain = 0;    ///< shard domain index (stats lanes)
    std::uint32_t stream = 0;    ///< logical source stream (tile + 1)
    std::uint64_t key = 0;       ///< the event's tie-break key
};

namespace detail
{
inline thread_local ExecCtx execCtx;
} // namespace detail

inline ExecCtx &execCtx() { return detail::execCtx; }

/** Shard-domain index of the running event (0 when monolithic). */
inline std::uint32_t ctxDomain() { return detail::execCtx.domain; }

} // namespace tako

#endif // TAKO_SIM_EXEC_CTX_HH
