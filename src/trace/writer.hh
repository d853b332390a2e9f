/**
 * @file
 * Streaming takotrace-v1 encoder.
 *
 * Records are buffered, delta + LEB128 encoded into fixed-capacity
 * chunks, and framed by the shared container (sim/chunk_file.hh). The
 * file header carries the total record/chunk counts and is patched on
 * close(), so a writer that dies mid-stream leaves the unpatched-count
 * sentinel — readers reject it instead of replaying a silent prefix.
 */

#ifndef TAKO_TRACE_WRITER_HH
#define TAKO_TRACE_WRITER_HH

#include <string>
#include <vector>

#include "sim/chunk_file.hh"
#include "trace/format.hh"

namespace tako::trace
{

class TraceWriter
{
  public:
    struct Options
    {
        /** Encode per-record timestamp deltas (sets the file flag).
         *  Timestamps must be non-decreasing in append order. */
        bool timestamps = false;
        /** Records per chunk: the decode/corruption-containment unit. */
        std::uint32_t chunkRecords = 4096;
    };

    TraceWriter() = default;

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Create @p path (truncating) and write a placeholder header. */
    bool open(const std::string &path, Options opt);
    bool open(const std::string &path) { return open(path, Options()); }

    /** Append one record. Errors (I/O, non-monotonic timestamp) are
     *  sticky and reported by close(). */
    void append(const TraceRecord &rec);

    /**
     * Flush the final chunk and patch the real record/chunk counts into
     * the header. Returns false if any append or flush failed; the file
     * is then invalid by construction (header still holds the sentinel).
     */
    bool close();

    bool isOpen() const { return file_.isOpen(); }
    std::uint64_t recordsWritten() const { return records_; }
    const std::string &error() const { return file_.error(); }

  private:
    void flushChunk();

    chunkfile::Writer file_{traceFormat};
    Options opt_;

    std::vector<std::uint8_t> payload_;
    std::uint32_t chunkRecords_ = 0;    ///< records in the open chunk
    std::uint64_t records_ = 0;         ///< total appended

    // Delta context; reset at every chunk boundary.
    Addr prevAddr_ = 0;
    std::uint32_t prevSize_ = 8;
    std::uint32_t prevTenant_ = 0;
    std::uint64_t prevTs_ = 0;
    /** Last appended timestamp, never reset: monotonicity is a
     *  file-wide contract, not a per-chunk one. */
    std::uint64_t lastTs_ = 0;
};

} // namespace tako::trace

#endif // TAKO_TRACE_WRITER_HH
