/**
 * @file
 * Structured event-trace sink: Chrome trace-event format (JSON), one
 * event per line, directly loadable in Perfetto / chrome://tracing.
 *
 * Spans (memory transactions, callback dispatch/retire, DRAM bursts) are
 * recorded as "complete" (ph:"X") events with the simulated tick as the
 * timestamp; ticks render as microseconds in the viewer. Tracks are
 * organized as pid/tid pairs: pid 0 = per-tile memory transactions,
 * pid 1 = per-tile engines, pid 2 = memory controllers.
 *
 * A writer is one observer (observer.hh) of the observation records
 * (record.hh): a System with one on its observer list subscribes it to
 * the record kinds its category mask selects, so spans arrive in the
 * executor's (tick, key) order at every shard count.
 */

#ifndef TAKO_SIM_TRACESINK_HH
#define TAKO_SIM_TRACESINK_HH

#include <cstdint>
#include <ostream>
#include <set>
#include <string>

#include "sim/observer.hh"
#include "sim/record.hh"
#include "sim/types.hh"

namespace tako::trace
{

/** Span categories (--trace-mask names: mem, engine, dram, all). */
enum SpanCategory : std::uint32_t
{
    kMemSpans = 1u << 0,    ///< end-to-end memory transactions
    kEngineSpans = 1u << 1, ///< callback enqueue to retire
    kDramSpans = 1u << 2,   ///< memory-controller accesses
    kAllSpans = kMemSpans | kEngineSpans | kDramSpans,
};

/**
 * Parse a comma-separated category spec ("mem,dram" / "all") into
 * @p mask. False — with the offending token in @p bad — on an empty
 * spec or token, or any name that emits no spans.
 */
bool parseSpanMask(const std::string &spec, std::uint32_t &mask,
                   std::string &bad);

class ChromeTraceWriter : public Observer
{
  public:
    /** Starts the JSON array; @p os must outlive the writer. @p mask
     *  selects the span categories record() emits. */
    explicit ChromeTraceWriter(std::ostream &os,
                               std::uint32_t mask = kAllSpans);

    /** Closes the array (idempotent; also runs at destruction). */
    ~ChromeTraceWriter() override;

    /** Record kinds this writer turns into spans under its mask. */
    std::uint32_t recordKinds() const override { return kinds_; }

    /** Emit the span for one released record (kinds outside the mask
     *  are ignored). */
    void record(const Record &r) override;

    /**
     * One complete-span event: [ts, ts+dur) on track (pid, tid).
     * @p args_json, if nonempty, must be a serialized JSON object.
     */
    void completeEvent(const char *cat, const char *name, int pid,
                       int tid, Tick ts, Tick dur,
                       const std::string &args_json = "");

    /**
     * Name a track the first time it is seen (emits thread_name /
     * process_name metadata events); later calls are no-ops.
     */
    void ensureTrack(int pid, const char *process, int tid,
                     const std::string &thread);

    void close();

    std::uint64_t eventsWritten() const { return events_; }

  private:
    void event(const char *ph, const char *cat, const char *name, int pid,
               int tid, Tick ts, Tick dur, bool has_dur,
               const std::string &args_json);

    std::ostream &os_;
    std::uint32_t kinds_ = 0;
    bool closed_ = false;
    bool first_ = true;
    std::uint64_t events_ = 0;
    // Ordered (takolint D1): dedup-only today, but metadata tables are
    // natural candidates for an on-close iteration pass.
    std::set<std::uint64_t> tracks_;
    std::set<int> processes_;
};

} // namespace tako::trace

#endif // TAKO_SIM_TRACESINK_HH
