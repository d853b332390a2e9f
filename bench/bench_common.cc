#include "bench/bench_common.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "sim/stats.hh"

namespace tako::bench
{

namespace
{

/** Process-wide quick switch, set by --quick. */
bool &
quickFlag()
{
    static bool quick = false;
    return quick;
}

[[noreturn]] void
usage(const std::string &bench, int code)
{
    std::fprintf(code ? stderr : stdout,
                 "usage: %s [--quick] [--json=FILE]\n"
                 "\n"
                 "  --quick       smoke-sized inputs\n"
                 "  --json=FILE   also write metrics as JSON "
                 "('-' for stdout)\n",
                 bench.c_str());
    std::exit(code);
}

void
writeRowValues(
    std::ostream &os,
    const std::vector<std::pair<std::string, double>> &values)
{
    for (const auto &[k, v] : values) {
        os << ", ";
        json::writeString(os, k);
        os << ": ";
        json::writeNumber(os, v);
    }
}

} // namespace

bool
quickMode()
{
    return quickFlag();
}

Reporter::Reporter(int argc, char **argv, std::string benchName)
    : bench_(std::move(benchName))
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quickFlag() = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            jsonPath_ = arg.substr(7);
        } else if (arg == "--help" || arg == "-h") {
            usage(bench_, 0);
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n\n",
                         bench_.c_str(), arg.c_str());
            usage(bench_, 2);
        }
    }
}

Reporter::~Reporter()
{
    if (!jsonPath_.empty())
        writeJson();
}

void
Reporter::title(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
    section_ = title;
}

void
Reporter::table(const std::vector<RunMetrics> &rows,
                const std::vector<std::string> &extras, std::size_t base)
{
    std::printf("%-16s %14s %8s %8s %12s %12s %12s", "variant", "cycles",
                "speedup", "energy", "dram", "coreInstr", "engInstr");
    for (const auto &e : extras)
        std::printf(" %14s", e.c_str());
    std::printf("\n");
    for (const auto &m : rows) {
        std::printf("%-16s %14llu %8.2f %8.2f %12llu %12llu %12llu",
                    m.label.c_str(), (unsigned long long)m.cycles,
                    m.speedupOver(rows[base]), m.energyVs(rows[base]),
                    (unsigned long long)m.dramAccesses(),
                    (unsigned long long)m.coreInstrs,
                    (unsigned long long)m.engineInstrs);
        for (const auto &e : extras) {
            auto it = m.extra.find(e);
            std::printf(" %14.3f", it == m.extra.end() ? 0.0 : it->second);
        }
        std::printf("\n");
        if (auto it = m.extra.find("correct");
            it != m.extra.end() && it->second != 1.0) {
            std::printf("  !! %s: RESULT MISMATCH\n", m.label.c_str());
        }

        // Record the row's full metric set, displayed or not.
        std::vector<std::pair<std::string, double>> vals = {
            {"cycles", static_cast<double>(m.cycles)},
            {"speedup", m.speedupOver(rows[base])},
            {"energy", m.energyVs(rows[base])},
            {"dram", static_cast<double>(m.dramAccesses())},
            {"core_instrs", static_cast<double>(m.coreInstrs)},
            {"engine_instrs", static_cast<double>(m.engineInstrs)},
        };
        for (const auto &[k, v] : m.extra)
            vals.emplace_back(k, v);
        row(m.label, vals);
    }
}

void
Reporter::row(const std::string &label,
              const std::vector<std::pair<std::string, double>> &values)
{
    rows_.push_back(Row{section_, label, values});
    for (const auto &[k, v] : values)
        metrics_[label + "." + k] = v;
}

void
Reporter::metric(const std::string &key, double value)
{
    metrics_[key] = value;
}

void
Reporter::writeJson() const
{
    std::ofstream file;
    const bool to_stdout = jsonPath_ == "-";
    if (!to_stdout) {
        file.open(jsonPath_);
        if (!file) {
            std::fprintf(stderr, "%s: cannot open '%s'\n", bench_.c_str(),
                         jsonPath_.c_str());
            // Destructor context: report and carry on; the aggregator
            // notices the missing file.
            return;
        }
    }
    std::ostream &os = to_stdout ? std::cout : file;

    os << "{\n  \"bench\": ";
    json::writeString(os, bench_);
    os << ",\n  \"quick\": " << (quickMode() ? "true" : "false");
    os << ",\n  \"metrics\": {";
    bool first = true;
    for (const auto &[k, v] : metrics_) {
        os << (first ? "\n" : ",\n") << "    ";
        first = false;
        json::writeString(os, k);
        os << ": ";
        json::writeNumber(os, v);
    }
    os << "\n  },\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const Row &r = rows_[i];
        os << (i ? ",\n    " : "\n    ") << "{\"section\": ";
        json::writeString(os, r.section);
        os << ", \"variant\": ";
        json::writeString(os, r.label);
        writeRowValues(os, r.values);
        os << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace tako::bench
