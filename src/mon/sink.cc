#include "mon/sink.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "system/system.hh"

namespace tako::mon
{

namespace
{

/** Host wall clock in seconds; feeds host.*-exempt heartbeat fields
 *  only, never a sampled series. */
double
hostNow()
{
    // takolint: ok(D2, heartbeat throughput is host.* observability)
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

} // namespace

void
printProgressBeat(const ProgressBeat &b)
{
    char tail[64] = "";
    if (b.fractionDone >= 0) {
        const double eta =
            b.fractionDone > 0
                ? b.hostSeconds * (1 - b.fractionDone) / b.fractionDone
                : -1;
        if (eta >= 0)
            std::snprintf(tail, sizeof(tail), " %5.1f%% eta=%.1fs",
                          b.fractionDone * 100, eta);
        else
            std::snprintf(tail, sizeof(tail), " %5.1f%%",
                          b.fractionDone * 100);
    }
    std::fprintf(stderr,
                 "takomon: progress tick=%llu events=%llu "
                 "ev/s=%.3gM%s\n",
                 (unsigned long long)b.tick,
                 (unsigned long long)b.events, b.eventsPerSec / 1e6,
                 tail);
}

TimeSeriesSink::TimeSeriesSink(Options opt) : opt_(std::move(opt))
{
    panic_if(opt_.sampleEvery == 0, "takomon sink with no cadence");
}

void
TimeSeriesSink::attach(const std::vector<EventQueue *> &queues,
                       StatsRegistry &stats)
{
    panic_if(queues.empty(), "takomon sink with no queue to sample");
    stats_ = &stats;
    buildSeries(opt_.patterns);
    StatsTimeSeries &ts = stats_->timeSeries();
    ts.interval = opt_.sampleEvery;
    ts.names.clear();
    for (const SeriesDesc &d : series_)
        ts.names.push_back(d.name);
    firstBoundary_ = queues[0]->now() + opt_.sampleEvery;
    fatal_if(!opt_.path.empty() &&
                 !writer_.open(opt_.path, opt_.sampleEvery, series_),
             "%s", writer_.error().c_str());
    capture_.resize(queues.size());
    for (unsigned d = 0; d < queues.size(); ++d)
        capture_[d].next = queues[d]->now() + opt_.sampleEvery;
}

void
TimeSeriesSink::attach(System &sys)
{
    attach(sys.domains().queues(), sys.stats());
}

Tick
TimeSeriesSink::advance(unsigned d, Tick to)
{
    // Replay every boundary this domain's clock is crossing. The hook
    // fires before any event at tick >= the boundary runs here, so the
    // captured lane partial covers exactly this domain's events strictly
    // before the boundary.
    DomainCapture &dc = capture_[d];
    while (dc.next <= to) {
        std::vector<double> row(sources_.size());
        for (std::size_t i = 0; i < sources_.size(); ++i)
            row[i] = readLane(sources_[i], d);
        dc.rows.push_back(std::move(row));
        dc.next += opt_.sampleEvery;
    }
    return dc.next;
}

void
TimeSeriesSink::mergeRows()
{
    // The domain owning the globally-last event replayed every boundary
    // up to it, so the longest capture has the full row count. Domains
    // that drained earlier stopped firing; their partials for the
    // missing tail are their final live lanes (all their events
    // completed), read here before StatsRegistry::mergeLanes() folds
    // them away.
    std::size_t rows = 0;
    for (const DomainCapture &dc : capture_)
        rows = std::max(rows, dc.rows.size());
    StatsTimeSeries &ts = stats_->timeSeries();
    for (std::size_t r = 0; r < rows; ++r) {
        std::fill(row_.begin(), row_.end(), 0.0);
        for (unsigned d = 0; d < capture_.size(); ++d) {
            std::vector<std::vector<double>> &part = capture_[d].rows;
            for (std::size_t i = 0; i < sources_.size(); ++i) {
                const double pv = r < part.size()
                                      ? part[r][i]
                                      : readLane(sources_[i], d);
                row_[i] = sources_[i].kind == SeriesKind::HistMax
                              ? std::max(row_[i], pv)
                              : row_[i] + pv;
            }
            // Release each partial once merged: the merged series
            // already holds every row, so don't keep two copies.
            if (r < part.size())
                std::vector<double>().swap(part[r]);
        }
        const Tick at =
            firstBoundary_ + static_cast<Tick>(r) * opt_.sampleEvery;
        ts.ticks.push_back(at);
        ts.samples.push_back(row_);
        if (!opt_.path.empty())
            writer_.addSample(at, row_);
    }
}

bool
TimeSeriesSink::finish()
{
    if (finished_ || !stats_)
        return error().empty();
    finished_ = true;
    mergeRows();
    return opt_.path.empty() ? error().empty() : writer_.close();
}

void
TimeSeriesSink::finish(System &, Tick)
{
    fatal_if(!finish(), "%s", error().c_str());
}

void
TimeSeriesSink::buildSeries(const std::vector<std::string> &patterns)
{
    // Fix the series set and order (registry map order = sorted by
    // name) at attach; host.* is excluded by design — those
    // gauges are host-timing-dependent and would break the format's
    // bit-identity contract.
    auto addCounter = [this](const std::string &name) {
        if (name.rfind("host.", 0) == 0)
            return;
        series_.push_back({name, SeriesKind::Counter});
        Source src;
        src.counter = &stats_->counters().at(name);
        src.kind = SeriesKind::Counter;
        sources_.push_back(src);
    };
    auto addHistogram = [this](const std::string &name) {
        if (name.rfind("host.", 0) == 0)
            return;
        const Histogram *h = &stats_->histograms().at(name);
        for (SeriesKind k : {SeriesKind::HistCount, SeriesKind::HistSum,
                             SeriesKind::HistMax}) {
            series_.push_back({name + seriesKindSuffix(k), k});
            Source src;
            src.hist = h;
            src.kind = k;
            sources_.push_back(src);
        }
    };

    if (patterns.empty()) {
        for (const auto &kv : stats_->counters())
            addCounter(kv.first);
        for (const auto &kv : stats_->histograms())
            addHistogram(kv.first);
    } else {
        for (const std::string &p : patterns) {
            for (const std::string &n : stats_->counterNamesMatching(p))
                addCounter(n);
            for (const std::string &n :
                 stats_->histogramNamesMatching(p))
                addHistogram(n);
        }
    }
    row_.resize(series_.size());
}

double
TimeSeriesSink::readLane(const Source &s, unsigned d) const
{
    switch (s.kind) {
      case SeriesKind::Counter:
        return s.counter->laneValue(d);
      case SeriesKind::HistCount:
        return static_cast<double>(s.hist->laneCount(d));
      case SeriesKind::HistSum:
        return s.hist->laneSum(d);
      case SeriesKind::HistMax:
        return static_cast<double>(s.hist->laneMax(d));
    }
    return 0;
}

Heartbeat::Heartbeat(Tick every,
                     std::function<void(const ProgressBeat &)> emit)
    : every_(every), emit_(std::move(emit))
{
    panic_if(every_ == 0, "heartbeat with no cadence");
}

void
Heartbeat::attach(System &sys)
{
    sys_ = &sys;
    next_ = sys.eq().now() + every_;
    startHostTime_ = hostNow();
}

Tick
Heartbeat::advance(unsigned, Tick to)
{
    while (next_ <= to) {
        ProgressBeat b;
        b.tick = next_;
        b.events = sys_->eq().eventsFired();
        b.hostSeconds = hostNow() - startHostTime_;
        b.eventsPerSec =
            b.hostSeconds > 0
                ? static_cast<double>(b.events) / b.hostSeconds
                : 0;
        b.fractionDone = sys_->fractionDone();
        emit_(b);
        next_ += every_;
    }
    return next_;
}

} // namespace tako::mon
