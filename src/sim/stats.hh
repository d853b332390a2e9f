/**
 * @file
 * Lightweight statistics registry.
 *
 * Components create named counters/histograms under a hierarchical dotted
 * name ("tile3.l2.misses"), optionally attaching a unit and description at
 * registration. Benches read them back by name, dump all as text, or dump
 * machine-readable JSON (dumpJson). A registry can also carry a sampled
 * time series of selected counters (see mon/sink.hh) so benches can plot
 * trajectories instead of end-of-run totals.
 */

#ifndef TAKO_SIM_STATS_HH
#define TAKO_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/exec_ctx.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

/**
 * A scalar, accumulating statistic.
 *
 * In a domain-decomposed run (StatsRegistry::enableLanes) every
 * accumulation lands in the executing domain's private lane, so shard
 * workers never contend on a cache line. Lane partials merge exactly:
 * every simulated increment is integer-valued (event counts, byte
 * counts, integral energy units), and integer sums below 2^53 are exact
 * in a double regardless of addition order — so the merged total is
 * bit-identical to the monolithic accumulation.
 */
class Counter
{
  public:
    Counter() = default;

    /** Snapshots fold lanes into the plain value. */
    Counter(const Counter &o) : value_(o.value()) {}

    Counter &
    operator=(const Counter &o)
    {
        value_ = o.value();
        lanes_.reset();
        laneCount_ = 0;
        return *this;
    }

    Counter &
    operator+=(double v)
    {
        if (lanes_)
            lanes_[ctxDomain()].value += v;
        else
            value_ += v;
        return *this;
    }

    Counter &operator++() { return *this += 1; }
    void operator++(int) { *this += 1; }

    double
    value() const
    {
        double v = value_;
        for (unsigned i = 0; i < laneCount_; ++i)
            v += lanes_[i].value;
        return v;
    }

    /** Overwrite the value; for host-side gauges (wall clock, rates).
     *  Only meaningful outside the decomposed hot path (pre/post-run). */
    void
    set(double v)
    {
        value_ = v;
        for (unsigned i = 0; i < laneCount_; ++i)
            lanes_[i].value = 0;
    }

    void reset() { set(0); }

    /** Allocate @p n zeroed per-domain lanes (idempotent). */
    void
    enableLanes(unsigned n)
    {
        if (lanes_)
            return;
        lanes_ = std::make_unique<Padded<double>[]>(n);
        laneCount_ = n;
    }

    /**
     * Domain @p d's partial (mid-run safe: each domain reads its own).
     * Domain 0's partial carries the unlaned base (values set() before
     * lanes existed, e.g. at construction), so partials always sum to
     * value() exactly.
     */
    double
    laneValue(unsigned d) const
    {
        const double base = d == 0 ? value_ : 0.0;
        return base + (lanes_ ? lanes_[d].value : 0.0);
    }

    /** Fold lane partials into the plain value (post-run, single thread). */
    void
    mergeLanes()
    {
        if (!lanes_)
            return;
        value_ = value();
        for (unsigned i = 0; i < laneCount_; ++i)
            lanes_[i].value = 0;
    }

  private:
    double value_ = 0;
    /** Per-domain partials (optional), one cache line each. */
    std::unique_ptr<Padded<double>[]> lanes_;
    unsigned laneCount_ = 0;
};

/** A histogram over fixed-width buckets plus mean tracking. */
class Histogram
{
  public:
    Histogram() : Histogram(16, 8) {}

    /** @p num_buckets buckets of width @p bucket_width; overflow last. */
    Histogram(unsigned num_buckets, std::uint64_t bucket_width)
        : buckets_(num_buckets, 0), width_(bucket_width)
    {
    }

    /** Snapshots fold lanes into the base fields. */
    Histogram(const Histogram &o)
        : buckets_(o.buckets_), width_(o.width_), count_(o.count_),
          sum_(o.sum_), max_(o.max_)
    {
        for (unsigned i = 0; i < o.laneCount_; ++i) {
            const Histogram &l = o.lanes_[i].value;
            for (std::size_t b = 0; b < buckets_.size(); ++b)
                buckets_[b] += l.buckets_[b];
            count_ += l.count_;
            sum_ += l.sum_;
            max_ = std::max(max_, l.max_);
        }
    }

    Histogram &
    operator=(const Histogram &o)
    {
        if (this != &o) {
            Histogram folded(o);
            buckets_ = std::move(folded.buckets_);
            width_ = folded.width_;
            count_ = folded.count_;
            sum_ = folded.sum_;
            max_ = folded.max_;
            lanes_.reset();
            laneCount_ = 0;
        }
        return *this;
    }

    Histogram(Histogram &&) = default;
    Histogram &operator=(Histogram &&) = default;

    void
    sample(std::uint64_t v)
    {
        if (lanes_) {
            lanes_[ctxDomain()].value.sample(v);
            return;
        }
        // Skip the integer division for sub-bucket-width values: latency
        // breakdowns sample several mostly-zero components per access,
        // which would otherwise put six divides on the L1-hit path.
        std::size_t idx = v < width_ ? 0 : v / width_;
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
        ++count_;
        sum_ += static_cast<double>(v);
        if (v > max_)
            max_ = v;
    }

    /** Allocate @p n per-domain lane histograms (idempotent). Reads of
     *  count()/sum()/max()/buckets() require mergeLanes() first. */
    void
    enableLanes(unsigned n)
    {
        if (lanes_)
            return;
        laneCount_ = n;
        lanes_ = std::make_unique<Padded<Histogram>[]>(n);
        for (unsigned i = 0; i < n; ++i)
            lanes_[i].value = Histogram(numBuckets(), bucketWidth());
    }

    /** Mid-run per-domain partials (each domain reads only its own).
     *  Domain 0's partial carries the unlaned base fields, mirroring
     *  Counter::laneValue, so partials merge to the full totals. */
    std::uint64_t
    laneCount(unsigned d) const
    {
        return (d == 0 ? count_ : 0) +
               (lanes_ ? lanes_[d].value.count_ : 0);
    }

    double
    laneSum(unsigned d) const
    {
        return (d == 0 ? sum_ : 0.0) +
               (lanes_ ? lanes_[d].value.sum_ : 0.0);
    }

    std::uint64_t
    laneMax(unsigned d) const
    {
        const std::uint64_t base = d == 0 ? max_ : 0;
        return lanes_ ? std::max(base, lanes_[d].value.max_) : base;
    }

    /** Fold lane partials into the base fields (post-run, one thread). */
    void
    mergeLanes()
    {
        if (!lanes_)
            return;
        for (unsigned i = 0; i < laneCount_; ++i) {
            Histogram &l = lanes_[i].value;
            for (std::size_t b = 0; b < buckets_.size(); ++b)
                buckets_[b] += l.buckets_[b];
            count_ += l.count_;
            sum_ += l.sum_;
            max_ = std::max(max_, l.max_);
            l.reset();
        }
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t max() const { return max_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets_.size());
    }
    std::uint64_t bucketWidth() const { return width_; }

    void
    reset()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        count_ = 0;
        sum_ = 0;
        max_ = 0;
        for (unsigned i = 0; i < laneCount_; ++i)
            lanes_[i].value.reset();
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t width_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    std::uint64_t max_ = 0;
    /** Per-domain partials, each starting on its own cache line. */
    std::unique_ptr<Padded<Histogram>[]> lanes_;
    unsigned laneCount_ = 0;
};

/** Unit/description metadata attached to a stat at registration. */
struct StatMeta
{
    std::string unit;
    std::string desc;
};

/**
 * Time series of selected counters, filled by a mon::TimeSeriesSink
 * during the run: samples[i][j] is the value of names[j] at simulated
 * tick ticks[i].
 */
struct StatsTimeSeries
{
    Tick interval = 0;
    std::vector<std::string> names;
    std::vector<Tick> ticks;
    std::vector<std::vector<double>> samples;

    bool enabled() const { return interval != 0; }
    std::size_t numSamples() const { return ticks.size(); }
};

/**
 * Registry of named statistics. Owns all stats; references returned by
 * counter()/histogram() stay valid for the registry's lifetime. Copyable
 * so a finished run's stats can be snapshotted into RunMetrics.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;

    /** Snapshot copy (RunMetrics): stat copies fold their lanes, and the
     *  snapshot starts unlaned — it is read, not accumulated into. The
     *  creation mutex itself is not copied. */
    StatsRegistry(const StatsRegistry &o)
        : counters_(o.counters_), histograms_(o.histograms_),
          meta_(o.meta_), timeseries_(o.timeseries_)
    {
    }

    StatsRegistry &
    operator=(const StatsRegistry &o)
    {
        if (this != &o) {
            counters_ = o.counters_;
            histograms_ = o.histograms_;
            meta_ = o.meta_;
            timeseries_ = o.timeseries_;
            laneCount_ = 1;
        }
        return *this;
    }

    /**
     * Decomposed-run mode: give every stat @p n per-domain lanes so
     * shard workers accumulate without sharing cache lines. Call before
     * components register their stats (System does, in its constructor);
     * stats created later are laned on creation. mergeLanes() folds the
     * partials back after the run.
     */
    void
    enableLanes(unsigned n)
    {
        if (n <= 1)
            return;
        laneCount_ = n;
        for (auto &kv : counters_)
            kv.second.enableLanes(n);
        for (auto &kv : histograms_)
            kv.second.enableLanes(n);
    }

    /** Fold every stat's lane partials (post-run, single-threaded). */
    void
    mergeLanes()
    {
        for (auto &kv : counters_)
            kv.second.mergeLanes();
        for (auto &kv : histograms_)
            kv.second.mergeLanes();
    }

    Counter &
    counter(const std::string &name)
    {
        // Creation is the only cross-domain hazard: most stats are made
        // at construction, but phase-scoped counters materialize lazily
        // mid-run from whichever domain first touches the phase. Node
        // references stay valid forever, so only the insert needs the
        // lock — increments go through the lock-free lanes.
        std::lock_guard<std::mutex> g(createMu_);
        Counter &c = counters_[name];
        if (laneCount_ > 1)
            c.enableLanes(laneCount_);
        return c;
    }

    /** Create/find @p name, attaching unit/description metadata. */
    Counter &
    counter(const std::string &name, const std::string &unit,
            const std::string &desc)
    {
        setMeta(name, unit, desc);
        return counter(name);
    }

    /**
     * Stable-pointer form of counter(): hot paths cache the handle at
     * component construction instead of re-hashing the name on every
     * increment. std::map nodes never move, so the pointer stays valid
     * for the registry's lifetime regardless of later registrations.
     */
    Counter *
    handle(const std::string &name)
    {
        return &counter(name);
    }

    Counter *
    handle(const std::string &name, const std::string &unit,
           const std::string &desc)
    {
        return &counter(name, unit, desc);
    }

    /** Find @p name, or create it with the default geometry (16 x 8). */
    Histogram &
    histogram(const std::string &name)
    {
        std::lock_guard<std::mutex> g(createMu_);
        Histogram &h = histograms_[name];
        if (laneCount_ > 1)
            h.enableLanes(laneCount_);
        return h;
    }

    /**
     * Find-or-create with explicit geometry. Re-requesting an existing
     * histogram with different parameters is a hard error: the caller
     * would observe bucket semantics it did not ask for.
     */
    Histogram &
    histogram(const std::string &name, unsigned num_buckets,
              std::uint64_t bucket_width, const std::string &unit = "",
              const std::string &desc = "")
    {
        if (!unit.empty() || !desc.empty())
            setMeta(name, unit, desc);
        std::lock_guard<std::mutex> g(createMu_);
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            it = histograms_
                     .emplace(name, Histogram(num_buckets, bucket_width))
                     .first;
        } else {
            panic_if(it->second.numBuckets() != num_buckets ||
                         it->second.bucketWidth() != bucket_width,
                     "histogram '%s' re-requested with mismatched "
                     "parameters (%u x %llu, registered %u x %llu)",
                     name.c_str(), num_buckets,
                     (unsigned long long)bucket_width,
                     it->second.numBuckets(),
                     (unsigned long long)it->second.bucketWidth());
        }
        if (laneCount_ > 1)
            it->second.enableLanes(laneCount_);
        return it->second;
    }

    /** Stable-pointer form of histogram(); same contract as handle(). */
    Histogram *
    histogramHandle(const std::string &name, unsigned num_buckets,
                    std::uint64_t bucket_width, const std::string &unit = "",
                    const std::string &desc = "")
    {
        return &histogram(name, num_buckets, bucket_width, unit, desc);
    }

    /** Value of a counter; 0 if it was never created. */
    double
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0.0 : it->second.value();
    }

    /** Sum of all counters whose name matches "prefix*suffix" pattern. */
    double sumMatching(const std::string &pattern) const;

    /** Names of all counters matching "prefix*suffix" (sorted). */
    std::vector<std::string>
    counterNamesMatching(const std::string &pattern) const;

    /** Names of all histograms matching "prefix*suffix" (sorted). */
    std::vector<std::string>
    histogramNamesMatching(const std::string &pattern) const;

    /** Metadata for @p name; nullptr if none was registered. */
    const StatMeta *
    meta(const std::string &name) const
    {
        auto it = meta_.find(name);
        return it == meta_.end() ? nullptr : &it->second;
    }

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    StatsTimeSeries &timeSeries() { return timeseries_; }
    const StatsTimeSeries &timeSeries() const { return timeseries_; }

    void dump(std::ostream &os) const;

    /**
     * Dump every counter, histogram, and the time series (if sampled) as
     * one JSON object, with units/descriptions where registered.
     * @p header pairs are emitted first as top-level string fields
     * (e.g. {"git_rev", "abc1234"}); @p numericHeader pairs follow as
     * top-level number fields (e.g. {"host_seconds", 1.25}).
     */
    void dumpJson(std::ostream &os,
                  const std::vector<std::pair<std::string, std::string>>
                      &header = {},
                  const std::vector<std::pair<std::string, double>>
                      &numericHeader = {}) const;

    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second.reset();
        for (auto &kv : histograms_)
            kv.second.reset();
        timeseries_.ticks.clear();
        timeseries_.samples.clear();
    }

  private:
    void
    setMeta(const std::string &name, const std::string &unit,
            const std::string &desc)
    {
        std::lock_guard<std::mutex> g(createMu_);
        StatMeta &m = meta_[name];
        if (m.unit.empty())
            m.unit = unit;
        if (m.desc.empty())
            m.desc = desc;
    }

    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, StatMeta> meta_;
    StatsTimeSeries timeseries_;
    unsigned laneCount_ = 1; ///< > 1 only in decomposed runs
    mutable std::mutex createMu_; ///< guards map inserts, not updates
};

namespace json
{

/** Write @p s as a JSON string literal (quoted, escaped). */
void writeString(std::ostream &os, const std::string &s);

/** Write @p v as a JSON number (integral values without a fraction). */
void writeNumber(std::ostream &os, double v);

} // namespace json

} // namespace tako

#endif // TAKO_SIM_STATS_HH
