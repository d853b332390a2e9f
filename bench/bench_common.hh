/**
 * @file
 * Shared harness for the figure/table benches. Every bench routes its
 * paper-rows (speedup over the named baseline, normalized energy, the
 * figure-specific metric) through a Reporter, which emits the familiar
 * text tables on stdout and, when asked, a structured JSON row file
 * that takobench aggregates into BENCH_<suite>.json.
 *
 * Command line (parsed by the Reporter constructor):
 *   --quick        shrink inputs for smoke runs (takobench passes it
 *                  to each bench run whose suite spec sets "quick")
 *   --json=FILE    write {bench, quick, metrics, rows} JSON to FILE
 *                  ('-' for stdout)
 */

#ifndef TAKO_BENCH_BENCH_COMMON_HH
#define TAKO_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads/common.hh"

namespace tako::bench
{

/**
 * True when inputs should be smoke-sized: a --quick flag seen by any
 * Reporter turns this on for the whole process.
 */
bool quickMode();

/**
 * Table 3 system with caches scaled down 8x for the graph benches, so
 * the (scaled-down) graphs stand in the same footprint-to-LLC regime as
 * the paper's 16M-vertex graphs vs. an 8MB LLC (see EXPERIMENTS.md).
 */
inline SystemConfig
scaledGraphSystem(unsigned cores)
{
    SystemConfig cfg = SystemConfig::forCores(cores);
    cfg.mem.l1Size = 2 * 1024;
    cfg.mem.l2Size = 8 * 1024;
    cfg.mem.l3BankSize = 16 * 1024;
    return cfg;
}

/**
 * Scaling for the single-threaded HATS study: the LLC is scaled so the
 * vertex data exceeds it (the locality battleground), while the private
 * caches stay large enough to hold one community's working set —
 * matching the paper's regime (128KB L2 vs. ~tens-of-KB communities).
 */
inline SystemConfig
hatsSystem()
{
    SystemConfig cfg = SystemConfig::forCores(16);
    cfg.mem.l1Size = 16 * 1024;
    cfg.mem.l2Size = 64 * 1024;
    cfg.mem.l3BankSize = 8 * 1024; // 128KB: vertex data >> LLC
    return cfg;
}

/**
 * Per-bench output channel: text tables on stdout (unchanged from the
 * pre-takobench format) plus an optional structured JSON file.
 *
 * Metrics are flat "label.key" doubles ("tako.speedup",
 * "ideal.cycles", ...); golden entries in experiment specs reference
 * them by these names. The JSON file is written on destruction.
 */
class Reporter
{
  public:
    /** Parses --quick / --json / --help; exits 2 on unknown flags. */
    Reporter(int argc, char **argv, std::string benchName);
    ~Reporter();

    Reporter(const Reporter &) = delete;
    Reporter &operator=(const Reporter &) = delete;

    /** Begin a section: prints "=== title ===" like the old benches. */
    void title(const std::string &title);

    /**
     * Print one row per variant — cycles, speedup vs. rows[base],
     * energy normalized to rows[base], DRAM accesses, instructions,
     * plus any extra metrics named in @p extras — and record every
     * row's full metric set (including extras not displayed).
     */
    void table(const std::vector<RunMetrics> &rows,
               const std::vector<std::string> &extras = {},
               std::size_t base = 0);

    /**
     * Record one row of a bench-specific table (the caller prints its
     * own text). Values become metrics "<label>.<key>".
     */
    void row(const std::string &label,
             const std::vector<std::pair<std::string, double>> &values);

    /** Record one standalone headline metric. */
    void metric(const std::string &key, double value);

  private:
    void writeJson() const;

    std::string bench_;
    std::string jsonPath_;
    std::map<std::string, double> metrics_;
    /** (section, label, values) per recorded row, in emission order. */
    struct Row
    {
        std::string section;
        std::string label;
        std::vector<std::pair<std::string, double>> values;
    };
    std::vector<Row> rows_;
    std::string section_;
};

} // namespace tako::bench

#endif // TAKO_BENCH_BENCH_COMMON_HH
