/**
 * @file
 * mmap-backed takotrace-v1 decoder.
 *
 * open() maps the file and walks its chunk headers through the shared
 * container (sim/chunk_file.hh), which checks every header against the
 * file size and the header's record/chunk counts — a truncated or
 * corrupt file is rejected before a single record is decoded. Payload
 * CRCs are verified lazily, when iteration first enters each chunk, so
 * opening a multi-gigabyte trace stays O(chunks).
 *
 * Iteration is strictly forward (`next()`), with `rewind()` to restart;
 * any structural violation mid-stream sets a sticky error and ends
 * iteration. The mapping lives until close()/destruction — records are
 * decoded straight out of the map with no intermediate copy.
 */

#ifndef TAKO_TRACE_READER_HH
#define TAKO_TRACE_READER_HH

#include <string>

#include "sim/chunk_file.hh"
#include "trace/format.hh"

namespace tako::trace
{

class TraceReader
{
  public:
    TraceReader() = default;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Map @p path and validate header + chunk directory. On failure
     * returns false with error() set; the reader is then closed.
     */
    bool open(const std::string &path);

    /** Unmap. Outstanding record pointers are invalid afterwards. */
    void close();

    /**
     * Decode the next record into @p out. Returns false at end-of-trace
     * or on a decode error — distinguish with error().empty().
     */
    bool next(TraceRecord &out);

    /** Restart iteration from the first record. Keeps the mapping. */
    void rewind();

    bool isOpen() const { return file_.isOpen(); }
    const std::string &error() const { return file_.error(); }
    std::uint64_t recordCount() const { return file_.count(); }
    std::uint64_t recordsRead() const { return recordsRead_; }
    bool hasTimestamps() const { return timestamps_; }
    std::uint64_t chunkCount() const { return file_.chunks().size(); }

  private:
    /** Enter chunk @p idx: CRC-check (once) and reset decode state. */
    bool enterChunk(std::size_t idx);
    bool fail(const std::string &msg);
    /** End iteration (after an error). Returns false. */
    bool stop();

    chunkfile::Reader file_{traceFormat};
    bool timestamps_ = false;

    // Cursor.
    std::size_t chunkIdx_ = 0;       ///< current chunk
    const std::uint8_t *cur_ = nullptr;
    const std::uint8_t *chunkEnd_ = nullptr;
    std::uint32_t chunkLeft_ = 0;    ///< records left in current chunk
    std::uint64_t recordsRead_ = 0;

    // Delta context (reset per chunk).
    Addr prevAddr_ = 0;
    std::uint32_t prevSize_ = 8;
    std::uint32_t prevTenant_ = 0;
    std::uint64_t prevTs_ = 0;
};

} // namespace tako::trace

#endif // TAKO_TRACE_READER_HH
