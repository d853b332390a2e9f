#include "sim/stats.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>

namespace tako
{

namespace
{

/** Match @p name against a pattern with at most one '*' wildcard. */
bool
matches(const std::string &name, const std::string &pattern)
{
    auto star = pattern.find('*');
    if (star == std::string::npos)
        return name == pattern;
    const std::string prefix = pattern.substr(0, star);
    const std::string suffix = pattern.substr(star + 1);
    if (name.size() < prefix.size() + suffix.size())
        return false;
    return name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

namespace json
{

void
writeString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no NaN/Inf; null keeps the document parseable.
        os << "null";
        return;
    }
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

} // namespace json

double
StatsRegistry::sumMatching(const std::string &pattern) const
{
    double sum = 0;
    for (const auto &kv : counters_) {
        if (matches(kv.first, pattern))
            sum += kv.second.value();
    }
    return sum;
}

std::vector<std::string>
StatsRegistry::counterNamesMatching(const std::string &pattern) const
{
    std::vector<std::string> names;
    for (const auto &kv : counters_) {
        if (matches(kv.first, pattern))
            names.push_back(kv.first);
    }
    return names;
}

std::vector<std::string>
StatsRegistry::histogramNamesMatching(const std::string &pattern) const
{
    std::vector<std::string> names;
    for (const auto &kv : histograms_) {
        if (matches(kv.first, pattern))
            names.push_back(kv.first);
    }
    return names;
}

void
StatsRegistry::dump(std::ostream &os) const
{
    os << std::left;
    for (const auto &kv : counters_) {
        os << std::setw(48) << kv.first << " "
           << std::setprecision(12) << kv.second.value() << "\n";
    }
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        os << std::setw(48) << (kv.first + ".count") << " " << h.count()
           << "\n";
        os << std::setw(48) << (kv.first + ".mean") << " " << h.mean()
           << "\n";
        os << std::setw(48) << (kv.first + ".max") << " " << h.max() << "\n";
    }
}

void
StatsRegistry::dumpJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &header,
    const std::vector<std::pair<std::string, double>> &numericHeader) const
{
    auto write_meta = [&](const std::string &name) {
        if (const StatMeta *m = meta(name)) {
            if (!m->unit.empty()) {
                os << ", \"unit\": ";
                json::writeString(os, m->unit);
            }
            if (!m->desc.empty()) {
                os << ", \"desc\": ";
                json::writeString(os, m->desc);
            }
        }
    };

    os << "{\n";
    for (const auto &[key, value] : header) {
        os << "  ";
        json::writeString(os, key);
        os << ": ";
        json::writeString(os, value);
        os << ",\n";
    }
    for (const auto &[key, value] : numericHeader) {
        os << "  ";
        json::writeString(os, key);
        os << ": ";
        json::writeNumber(os, value);
        os << ",\n";
    }
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &kv : counters_) {
        os << (first ? "\n" : ",\n") << "    ";
        first = false;
        json::writeString(os, kv.first);
        os << ": {\"value\": ";
        json::writeNumber(os, kv.second.value());
        write_meta(kv.first);
        os << "}";
    }
    os << "\n  },\n  \"histograms\": {";

    first = true;
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        os << (first ? "\n" : ",\n") << "    ";
        first = false;
        json::writeString(os, kv.first);
        os << ": {\"count\": " << h.count() << ", \"sum\": ";
        json::writeNumber(os, h.sum());
        os << ", \"mean\": ";
        json::writeNumber(os, h.mean());
        os << ", \"max\": " << h.max()
           << ", \"bucket_width\": " << h.bucketWidth() << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets().size(); ++i)
            os << (i ? ", " : "") << h.buckets()[i];
        os << "]";
        write_meta(kv.first);
        os << "}";
    }
    os << "\n  }";

    if (timeseries_.enabled()) {
        os << ",\n  \"timeseries\": {\n    \"interval\": "
           << timeseries_.interval << ",\n    \"names\": [";
        for (std::size_t i = 0; i < timeseries_.names.size(); ++i) {
            os << (i ? ", " : "");
            json::writeString(os, timeseries_.names[i]);
        }
        os << "],\n    \"ticks\": [";
        for (std::size_t i = 0; i < timeseries_.ticks.size(); ++i)
            os << (i ? ", " : "") << timeseries_.ticks[i];
        os << "],\n    \"samples\": [";
        for (std::size_t i = 0; i < timeseries_.samples.size(); ++i) {
            os << (i ? ",\n      " : "\n      ") << "[";
            const auto &row = timeseries_.samples[i];
            for (std::size_t j = 0; j < row.size(); ++j) {
                os << (j ? ", " : "");
                json::writeNumber(os, row[j]);
            }
            os << "]";
        }
        os << "\n    ]\n  }";
    }
    os << "\n}\n";
}

} // namespace tako
