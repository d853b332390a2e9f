/**
 * @file
 * takomon TimeSeriesSink: the one sampling path for periodic telemetry.
 *
 * The sink rides the advance hook (at most one per queue) of every
 * shard domain's EventQueue and multiplexes every fixed-cadence
 * consumer behind it:
 *
 *  - the in-memory StatsTimeSeries exported by --stats-json;
 *  - an optional takomon-v1 binary file (MonWriter) holding the same
 *    rows, bit-identical across host thread counts and shard counts;
 *  - optional progress heartbeats at their own (sim-tick) cadence.
 *
 * Each domain captures its own stat-lane partials when its clock first
 * reaches each interval boundary, before the events at that tick run,
 * and finish() sums the partial rows in domain order; so a sample at
 * tick T reflects everything that completed strictly before T, in any
 * domain, without ever synchronizing workers. Sampled values
 * are a pure function of sim state: the sink samples counters and
 * histograms fixed at construction and never the host.* namespace
 * (those gauges are registered after the run, and are skipped by name
 * as well). Heartbeats fire at deterministic ticks but carry host-side
 * throughput — they go to a callback/stderr, never into the series.
 */

#ifndef TAKO_MON_SINK_HH
#define TAKO_MON_SINK_HH

#include <functional>
#include <string>
#include <vector>

#include "mon/writer.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tako::mon
{

/** One progress heartbeat, emitted at a deterministic sim tick. */
struct ProgressBeat
{
    Tick tick = 0;             ///< sim tick of this boundary
    std::uint64_t events = 0;  ///< kernel events fired so far
    double hostSeconds = 0;    ///< host.* wall time since the first event
    double eventsPerSec = 0;   ///< host.* throughput (events/hostSeconds)
    double fractionDone = -1;  ///< work fraction if known, else < 0
};

/** The default heartbeat consumer: one human-readable stderr line per
 *  beat (with %done and ETA when the fraction is known). Custom onBeat
 *  handlers can call it to keep the human line alongside their own. */
void printProgressBeat(const ProgressBeat &b);

class TimeSeriesSink
{
  public:
    struct Options
    {
        /** Series cadence in ticks; 0 = no series capture. */
        Tick sampleEvery = 0;
        /** Counter/histogram name patterns ("prefix*suffix"; empty =
         *  everything registered at construction). */
        std::vector<std::string> patterns;
        /** takomon-v1 output path; empty = in-memory series only.
         *  Requires sampleEvery != 0. */
        std::string monPath;
        /** Heartbeat cadence in ticks; 0 = no heartbeats. */
        Tick progressEvery = 0;
        /** Heartbeat consumer; default prints one line to stderr. */
        std::function<void(const ProgressBeat &)> onBeat;
    };

    /**
     * Install on the advance hook of every queue in @p queues, one per
     * shard domain in domain order (a standalone queue is one domain;
     * domain d's partials are the stats' lane d, see
     * Counter::laneValue). Domain 0 also drives the heartbeats. At
     * least one cadence must be enabled. All counters/histograms to
     * sample must already be registered in @p stats. A monPath that
     * cannot be created is a fatal (configuration) error — it fails
     * before the run, not after.
     */
    TimeSeriesSink(std::vector<EventQueue *> queues, StatsRegistry &stats,
                   Options opt);

    ~TimeSeriesSink();

    TimeSeriesSink(const TimeSeriesSink &) = delete;
    TimeSeriesSink &operator=(const TimeSeriesSink &) = delete;

    /** Provide the done-fraction for heartbeat ETA (e.g. trace replay
     *  knows records done / total). Cleared by passing nullptr. */
    void setFractionDone(std::function<double()> fn)
    {
        fractionDone_ = std::move(fn);
    }

    /**
     * End of the run: detach from the queues, merge the per-domain
     * partial rows into the in-memory series and the takomon file, and
     * flush and close the file (if any). Call *before*
     * StatsRegistry::mergeLanes(): boundaries past a drained domain's
     * last event read that domain's final live lane partials. Each
     * domain's hook read only its own lanes and wrote only its own
     * capture buffer, and every event executes at the same tick in
     * exactly one domain at any partition, so the merged rows are
     * bit-identical at every shard count. Heartbeat events/throughput
     * fields cover domain 0's queue only (beats are host-side
     * observability, never series data). Idempotent; the destructor
     * calls it and warns on a swallowed error. Returns false with
     * error() set if any write failed.
     */
    bool finish();

    const std::string &error() const { return writer_.error(); }
    std::uint64_t samplesTaken() const { return samplesTaken_; }
    const std::vector<SeriesDesc> &seriesDescs() const { return series_; }

  private:
    /** What one series reads; exactly one pointer is set. */
    struct Source
    {
        const Counter *counter = nullptr;
        const Histogram *hist = nullptr;
        SeriesKind kind = SeriesKind::Counter;
    };

    void buildSeries(const std::vector<std::string> &patterns);
    double readLane(const Source &s, unsigned d) const;
    Tick onDomainAdvance(unsigned d, Tick to);
    Tick watermark(unsigned d) const;
    void mergeRows();
    void emitBeat(Tick at);

    std::vector<EventQueue *> queues_; ///< one per domain
    StatsRegistry &stats_;
    Options opt_;

    std::vector<SeriesDesc> series_;
    std::vector<Source> sources_; ///< parallel to series_
    std::vector<double> row_;     ///< scratch, one slot per series
    MonWriter writer_;
    bool writing_ = false;
    bool finished_ = false;
    std::uint64_t samplesTaken_ = 0;

    /** One domain's capture state; owned exclusively by that domain's
     *  worker, padded against false sharing. */
    struct alignas(64) DomainCapture
    {
        Tick next = 0; ///< next series boundary (0 = no series)
        std::vector<std::vector<double>> rows; ///< lane-partial rows
    };

    std::vector<DomainCapture> capture_; ///< parallel to queues_
    Tick firstBoundary_ = 0; ///< tick of row 0

    Tick nextBeat_ = 0;   ///< next heartbeat boundary (0 = disabled)
    std::function<double()> fractionDone_;
    double firstBeatHostTime_ = 0; ///< host clock at construction
};

} // namespace tako::mon

#endif // TAKO_MON_SINK_HH
