#include "mon/reader.hh"

#include <algorithm>
#include <cstring>

namespace tako::mon
{

using chunkfile::get32;
using chunkfile::get64;

bool
MonReader::stop()
{
    // The mapping stays for error reporting.
    ticks_.clear();
    rows_.clear();
    rowInChunk_ = 0;
    chunkIdx_ = file_.chunks().size();
    return false;
}

bool
MonReader::fail(const std::string &msg)
{
    file_.fail(msg);
    return stop();
}

bool
MonReader::reject(const std::string &msg)
{
    file_.reject(msg);
    close();
    return false;
}

bool
MonReader::open(const std::string &path)
{
    close();
    if (!file_.open(path))
        return false;

    // --- header fields past the container's -----------------------------
    const std::uint8_t *data = file_.data();
    interval_ = get64(data + 16);
    if (interval_ == 0)
        return reject("zero sample interval");
    const std::uint32_t seriesCount = get32(data + 24);
    const std::uint32_t dirBytes = get32(data + 28);

    // --- series directory ----------------------------------------------
    if (monFileHeaderBytes + dirBytes + 4 > file_.size())
        return reject("truncated in the series directory");
    const std::uint8_t *dir = data + monFileHeaderBytes;
    const std::uint32_t dirCrc = get32(dir + dirBytes);
    const std::uint32_t gotCrc = crc32(dir, dirBytes);
    if (gotCrc != dirCrc)
        return reject("directory CRC mismatch (stored " +
                      std::to_string(dirCrc) + ", computed " +
                      std::to_string(gotCrc) + ")");
    const std::uint8_t *p = dir;
    const std::uint8_t *dirEnd = dir + dirBytes;
    // An entry takes at least two bytes, so a corrupt count cannot size
    // the reservation past the directory.
    series_.reserve(std::min<std::size_t>(seriesCount, dirBytes / 2));
    for (std::uint32_t i = 0; i < seriesCount; ++i) {
        if (p == dirEnd)
            return reject("directory ends at series " +
                          std::to_string(i) + " of " +
                          std::to_string(seriesCount));
        const std::uint8_t kind = *p++;
        std::uint64_t nameLen;
        if (kind >= numSeriesKinds || !getVarint(p, dirEnd, nameLen) ||
            nameLen > static_cast<std::uint64_t>(dirEnd - p))
            return reject("bad series entry " + std::to_string(i));
        SeriesDesc d;
        d.kind = static_cast<SeriesKind>(kind);
        d.name.assign(reinterpret_cast<const char *>(p),
                      static_cast<std::size_t>(nameLen));
        p += nameLen;
        series_.push_back(std::move(d));
    }
    if (p != dirEnd)
        return reject(std::to_string(dirEnd - p) +
                      " trailing directory bytes after the last series");

    if (!file_.walk(monFileHeaderBytes + dirBytes + 4)) {
        close();
        return false;
    }
    rewind();
    return true;
}

void
MonReader::close()
{
    file_.close();
    series_.clear();
    interval_ = 0;
    samplesRead_ = 0;
    ticks_.clear();
    rows_.clear();
    rowInChunk_ = 0;
    chunkIdx_ = 0;
    lastTick_ = 0;
    entered_ = false;
}

void
MonReader::rewind()
{
    samplesRead_ = 0;
    chunkIdx_ = 0;
    rowInChunk_ = 0;
    lastTick_ = 0;
    entered_ = false;
    ticks_.clear();
    rows_.clear();
    if (isOpen() && error().empty() && !file_.chunks().empty())
        entered_ = enterChunk(0);
}

bool
MonReader::enterChunk(std::size_t idx)
{
    const std::uint8_t *p = file_.payload(idx);
    if (!p)
        return stop();
    const chunkfile::Chunk &c = file_.chunks()[idx];
    const std::uint8_t *end = p + c.payloadBytes;
    const std::uint32_t n = c.count;
    // A row takes at least one byte in the tick column and in each
    // value column: reject a count the payload cannot hold before it
    // sizes the decode buffers.
    if (std::uint64_t{n} * (series_.size() + 1) > c.payloadBytes)
        return fail("chunk " + std::to_string(idx) + ": " +
                    std::to_string(n) + " samples cannot fit in " +
                    std::to_string(c.payloadBytes) + " payload bytes");

    // Tick column: delta context restarts at 0, first value absolute.
    // Ticks must keep increasing file-wide.
    ticks_.clear();
    ticks_.reserve(n);
    Tick prev = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t d;
        if (!getVarint(p, end, d))
            return fail("chunk " + std::to_string(idx) +
                        ": truncated tick varint");
        const Tick t = prev + d;
        // Strictly increasing file-wide: within a chunk a zero delta
        // repeats a tick; across a boundary the (absolute) first tick
        // must clear the previous chunk's last row.
        if ((i > 0 && d == 0) || (i == 0 && idx > 0 && t <= lastTick_))
            return fail("chunk " + std::to_string(idx) +
                        ": non-increasing sample tick");
        prev = t;
        ticks_.push_back(t);
    }

    // Value columns, directory order.
    rows_.assign(std::size_t{n} * series_.size(), 0.0);
    for (std::size_t s = 0; s < series_.size(); ++s) {
        if (p == end)
            return fail("chunk " + std::to_string(idx) +
                        ": payload ends before column " +
                        std::to_string(s));
        const std::uint8_t tag = *p++;
        if (tag == colIntDeltas) {
            std::uint64_t prevBits = 0;
            for (std::uint32_t i = 0; i < n; ++i) {
                std::uint64_t v;
                if (!getVarint(p, end, v))
                    return fail("chunk " + std::to_string(idx) +
                                ": truncated value varint in column " +
                                std::to_string(s));
                prevBits += static_cast<std::uint64_t>(zigzagDecode(v));
                rows_[std::size_t{i} * series_.size() + s] =
                    static_cast<double>(
                        static_cast<std::int64_t>(prevBits));
            }
        } else if (tag == colRawDoubles) {
            if (end - p < static_cast<std::ptrdiff_t>(8 * n))
                return fail("chunk " + std::to_string(idx) +
                            ": truncated raw column " +
                            std::to_string(s));
            for (std::uint32_t i = 0; i < n; ++i) {
                const std::uint64_t bits = get64(p);
                p += 8;
                double v;
                static_assert(sizeof(v) == sizeof(bits));
                std::memcpy(&v, &bits, sizeof(v));
                rows_[std::size_t{i} * series_.size() + s] = v;
            }
        } else {
            return fail("chunk " + std::to_string(idx) +
                        ": unknown column encoding " +
                        std::to_string(tag));
        }
    }
    if (p != end)
        return fail("chunk " + std::to_string(idx) + ": " +
                    std::to_string(end - p) +
                    " payload bytes left after the last column");

    chunkIdx_ = idx;
    rowInChunk_ = 0;
    return true;
}

bool
MonReader::next(Tick &tick, std::vector<double> &values)
{
    if (!error().empty())
        return false;
    while (entered_ && rowInChunk_ >= ticks_.size()) {
        if (chunkIdx_ + 1 >= file_.chunks().size())
            return false; // clean end of file
        if (!enterChunk(chunkIdx_ + 1))
            return false;
    }
    if (!entered_ || ticks_.empty())
        return false;

    tick = ticks_[rowInChunk_];
    lastTick_ = tick;
    values.assign(
        rows_.begin() +
            static_cast<std::ptrdiff_t>(std::size_t{rowInChunk_} *
                                        series_.size()),
        rows_.begin() +
            static_cast<std::ptrdiff_t>(
                std::size_t{rowInChunk_ + 1} * series_.size()));
    ++rowInChunk_;
    ++samplesRead_;
    return true;
}

} // namespace tako::mon
