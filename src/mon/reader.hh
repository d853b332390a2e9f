/**
 * @file
 * mmap-backed takomon-v1 decoder.
 *
 * open() maps the file, decodes the series directory, and walks the
 * chunk headers through the shared container (sim/chunk_file.hh),
 * which checks every header against the file size and the header's
 * sample count — a truncated or corrupt file is rejected before a
 * single row is decoded. Payload CRCs are verified lazily, when
 * iteration first enters each chunk.
 *
 * Iteration is strictly forward (`next()`), with `rewind()` to
 * restart; any structural violation mid-stream sets a sticky error and
 * ends iteration — corrupt files fail loudly, never decode a silent
 * prefix. Same read discipline as trace::TraceReader.
 */

#ifndef TAKO_MON_READER_HH
#define TAKO_MON_READER_HH

#include <string>
#include <vector>

#include "mon/format.hh"
#include "sim/chunk_file.hh"

namespace tako::mon
{

class MonReader
{
  public:
    MonReader() = default;

    MonReader(const MonReader &) = delete;
    MonReader &operator=(const MonReader &) = delete;

    /**
     * Map @p path and validate header, directory, and chunk layout. On
     * failure returns false with error() set; the reader is closed.
     */
    bool open(const std::string &path);

    /** Unmap. */
    void close();

    /**
     * Decode the next row: the sample tick into @p tick and one value
     * per series (directory order) into @p values. Returns false at
     * end-of-file or on a decode error — distinguish with
     * error().empty().
     */
    bool next(Tick &tick, std::vector<double> &values);

    /** Restart iteration from the first row. Keeps the mapping. */
    void rewind();

    bool isOpen() const { return file_.isOpen(); }
    const std::string &error() const { return file_.error(); }
    Tick interval() const { return interval_; }
    std::uint64_t sampleCount() const { return file_.count(); }
    std::uint64_t samplesRead() const { return samplesRead_; }
    std::uint64_t chunkCount() const { return file_.chunks().size(); }
    const std::vector<SeriesDesc> &series() const { return series_; }

  private:
    /** Enter chunk @p idx: CRC-check (once) and decode its columns. */
    bool enterChunk(std::size_t idx);
    bool fail(const std::string &msg);
    /** Fail open() with "'path': @p msg" and close. */
    bool reject(const std::string &msg);
    /** End iteration (after an error). Returns false. */
    bool stop();

    chunkfile::Reader file_{monFormat};
    Tick interval_ = 0;
    std::vector<SeriesDesc> series_;

    // Cursor: decoded columns of the current chunk, handed out row by
    // row. Column decode happens on chunk entry — rows then cost one
    // copy each and every structural check runs before the first row.
    std::size_t chunkIdx_ = 0;
    std::vector<Tick> ticks_;
    std::vector<double> rows_; ///< row-major values of current chunk
    std::uint32_t rowInChunk_ = 0;
    std::uint64_t samplesRead_ = 0;
    Tick lastTick_ = 0;
    bool entered_ = false; ///< enterChunk(0) ran since rewind()
};

} // namespace tako::mon

#endif // TAKO_MON_READER_HH
