/**
 * @file
 * takomon's two observers (sim/observer.hh): TimeSeriesSink, the one
 * sampling path for periodic telemetry, and Heartbeat, the progress
 * beats. A driver that wants them puts them on the System's observer
 * list; each rides the list's per-domain watermarks.
 *
 * The sink fills the in-memory StatsTimeSeries exported by
 * --stats-json and, optionally, a takomon-v1 binary file (MonWriter)
 * holding the same rows, bit-identical across host thread counts and
 * shard counts. Each domain captures its own stat-lane partials when
 * its clock first reaches each interval boundary, before the events at
 * that tick run, and finish() sums the partial rows in domain order; so
 * a sample at tick T reflects everything that completed strictly
 * before T, in any domain, without ever synchronizing workers. Sampled
 * values are a pure function of sim state: the sink samples counters
 * and histograms fixed at attach and never the host.* namespace (those
 * gauges are registered after the run, and are skipped by name as
 * well). Heartbeats fire at deterministic ticks but carry host-side
 * throughput — they go to a callback/stderr, never into the series.
 */

#ifndef TAKO_MON_SINK_HH
#define TAKO_MON_SINK_HH

#include <functional>
#include <string>
#include <vector>

#include "mon/writer.hh"
#include "sim/event_queue.hh"
#include "sim/observer.hh"
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

/** One human-readable stderr line per beat (with %done and ETA when
 *  the fraction is known), for a Heartbeat consumer to print. */
void printProgressBeat(const ProgressBeat &b);

class TimeSeriesSink : public Observer
{
  public:
    struct Options
    {
        /** Series cadence in ticks (nonzero). */
        Tick sampleEvery = 0;
        /** Counter/histogram name patterns ("prefix*suffix"; empty =
         *  everything registered at attach). */
        std::vector<std::string> patterns{};
        /** takomon-v1 output path; empty = in-memory series only. */
        std::string path{};
    };

    explicit TimeSeriesSink(Options opt);

    /**
     * Sample @p queues, one per shard domain in domain order (a
     * standalone queue is one domain; domain d's partials are the
     * stats' lane d, see Counter::laneValue), into @p stats' time
     * series. Every counter/histogram to sample must already be
     * registered in @p stats. A path that cannot be created is a fatal
     * (configuration) error — it fails before the run, not after.
     */
    void attach(const std::vector<EventQueue *> &queues,
                StatsRegistry &stats);
    /** attach() over the System's domain queues and stats. */
    void attach(System &sys) override;

    Tick watermark(unsigned d) const override { return capture_[d].next; }
    Tick advance(unsigned d, Tick to) override;

    /**
     * End of the run: merge the per-domain partial rows into the
     * in-memory series and the takomon file, and flush and close the
     * file (if any). Call after the last event and *before*
     * StatsRegistry::mergeLanes(): boundaries past a drained domain's
     * last event read that domain's final live lane partials. Each
     * domain's advance read only its own lanes and wrote only its own
     * capture buffer, and every event executes at the same tick in
     * exactly one domain at any partition, so the merged rows are
     * bit-identical at every shard count. Idempotent. Returns false
     * with error() set if any write failed; a file never finished keeps
     * its unpatched header, which every reader rejects.
     */
    bool finish();
    /** finish(); a write error is fatal. */
    void finish(System &sys, Tick end) override;

    const std::string &error() const { return writer_.error(); }
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
    void mergeRows();

    StatsRegistry *stats_ = nullptr;
    Options opt_;

    std::vector<SeriesDesc> series_;
    std::vector<Source> sources_; ///< parallel to series_
    std::vector<double> row_;     ///< scratch, one slot per series
    MonWriter writer_;
    bool finished_ = false;

    /** One domain's capture state; owned exclusively by that domain's
     *  worker, padded against false sharing. */
    struct alignas(64) DomainCapture
    {
        Tick next = kNever; ///< next series boundary
        std::vector<std::vector<double>> rows; ///< lane-partial rows
    };

    std::vector<DomainCapture> capture_; ///< one per domain
    Tick firstBoundary_ = 0; ///< tick of row 0
};

/**
 * Progress heartbeats: one ProgressBeat each time domain 0's clock
 * crosses a multiple of @p every ticks from attach. The beat's tick is
 * simulation state; its events and throughput fields cover domain 0's
 * queue, and its done fraction is the System's (setFractionDone).
 */
class Heartbeat : public Observer
{
  public:
    Heartbeat(Tick every, std::function<void(const ProgressBeat &)> emit);

    void attach(System &sys) override;
    Tick
    watermark(unsigned d) const override
    {
        return d == 0 ? next_ : kNever;
    }
    Tick advance(unsigned d, Tick to) override;

  private:
    Tick every_;
    std::function<void(const ProgressBeat &)> emit_;
    System *sys_ = nullptr;
    Tick next_ = kNever;
    double startHostTime_ = 0; ///< host clock at attach
};

} // namespace tako::mon

#endif // TAKO_MON_SINK_HH
