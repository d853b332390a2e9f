#include "mon/writer.hh"

#include <cmath>
#include <cstring>
#include <limits>

namespace tako::mon
{

using chunkfile::put32;
using chunkfile::put64;

namespace
{

/** True iff @p v is an exact integer representable as int64. */
bool
isIntegral(double v)
{
    // 2^63 itself is exactly representable but overflows int64; keep
    // strictly inside the representable window on both sides.
    return std::nearbyint(v) == v &&
           v >= -9223372036854775808.0 && v < 9223372036854775808.0;
}

} // namespace

const char *
seriesKindSuffix(SeriesKind kind)
{
    switch (kind) {
      case SeriesKind::Counter: return "";
      case SeriesKind::HistCount: return ".count";
      case SeriesKind::HistSum: return ".sum";
      case SeriesKind::HistMax: return ".max";
    }
    return "?";
}

bool
MonWriter::open(const std::string &path, Tick interval,
                std::vector<SeriesDesc> series, Options opt)
{
    if (interval == 0) {
        file_.setError("sampling interval must be nonzero");
        return false;
    }
    if (opt.chunkSamples == 0)
        opt.chunkSamples = 1;

    // Header (the container fills in magic, version, flags and the
    // sampleCount sentinel), then the series directory and its CRC.
    std::vector<std::uint8_t> head(monFileHeaderBytes);
    for (const SeriesDesc &s : series) {
        head.push_back(static_cast<std::uint8_t>(s.kind));
        putVarint(head, s.name.size());
        head.insert(head.end(), s.name.begin(), s.name.end());
    }
    const std::size_t dirBytes = head.size() - monFileHeaderBytes;
    put64(head.data() + 16, interval);
    put32(head.data() + 24, static_cast<std::uint32_t>(series.size()));
    put32(head.data() + 28, static_cast<std::uint32_t>(dirBytes));
    std::uint8_t dirCrc[4];
    put32(dirCrc, crc32(head.data() + monFileHeaderBytes, dirBytes));
    head.insert(head.end(), dirCrc, dirCrc + sizeof(dirCrc));
    if (!file_.open(path, std::move(head), 0))
        return false;

    opt_ = opt;
    seriesCount_ = series.size();
    samples_ = 0;
    lastTick_ = 0;
    anySample_ = false;
    ticks_.clear();
    rows_.clear();
    return true;
}

void
MonWriter::addSample(Tick tick, const std::vector<double> &values)
{
    if (!file_.ok())
        return; // sticky error; close() reports it
    if (values.size() != seriesCount_) {
        file_.setError("row arity " + std::to_string(values.size()) +
                       " != " + std::to_string(seriesCount_) + " series");
        return;
    }
    if (anySample_ && tick <= lastTick_) {
        file_.setError("non-increasing tick at sample " +
                       std::to_string(samples_));
        return;
    }
    lastTick_ = tick;
    anySample_ = true;
    ticks_.push_back(tick);
    rows_.insert(rows_.end(), values.begin(), values.end());
    ++samples_;
    if (ticks_.size() >= opt_.chunkSamples)
        flushChunk();
}

void
MonWriter::flushChunk()
{
    const std::size_t n = ticks_.size();
    if (n == 0)
        return;

    std::vector<std::uint8_t> payload;
    // Tick column: delta context resets at the chunk boundary, so the
    // first value is the absolute tick and chunks decode independently.
    Tick prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        putVarint(payload, ticks_[i] - prev);
        prev = ticks_[i];
    }
    // Value columns, in directory order. A column uses integer deltas
    // only when every value it holds in this chunk is integral — the
    // tag is a pure function of the sampled values, never of the host.
    for (std::size_t s = 0; s < seriesCount_; ++s) {
        bool integral = true;
        for (std::size_t i = 0; i < n; ++i) {
            if (!isIntegral(rows_[i * seriesCount_ + s])) {
                integral = false;
                break;
            }
        }
        payload.push_back(integral ? colIntDeltas : colRawDoubles);
        if (integral) {
            std::uint64_t prevBits = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const auto v = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(
                        rows_[i * seriesCount_ + s]));
                // Wrapping difference: lossless for any int64 pair.
                putVarint(payload,
                          zigzagEncode(static_cast<std::int64_t>(
                              v - prevBits)));
                prevBits = v;
            }
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t bits;
                static_assert(sizeof(bits) ==
                              sizeof(rows_[i * seriesCount_ + s]));
                std::memcpy(&bits, &rows_[i * seriesCount_ + s],
                            sizeof(bits));
                std::uint8_t raw[8];
                put64(raw, bits);
                payload.insert(payload.end(), raw, raw + 8);
            }
        }
    }

    if (!file_.writeChunk(static_cast<std::uint32_t>(n), payload))
        return;
    ticks_.clear();
    rows_.clear();
}

bool
MonWriter::close()
{
    flushChunk();
    return file_.close();
}

} // namespace tako::mon
