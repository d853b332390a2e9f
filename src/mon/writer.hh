/**
 * @file
 * Streaming takomon-v1 encoder.
 *
 * Rows (one sampled value per series, at one tick) are buffered,
 * column-encoded into fixed-capacity chunks, and framed by the shared
 * container (sim/chunk_file.hh). The file header carries the total
 * sample count and is patched on close(), so a writer that dies
 * mid-stream leaves the unpatched-count sentinel — readers reject it
 * instead of trusting a silent prefix.
 */

#ifndef TAKO_MON_WRITER_HH
#define TAKO_MON_WRITER_HH

#include <string>
#include <vector>

#include "mon/format.hh"
#include "sim/chunk_file.hh"

namespace tako::mon
{

class MonWriter
{
  public:
    struct Options
    {
        /** Rows per chunk: the decode/corruption-containment unit. */
        std::uint32_t chunkSamples = 512;
    };

    MonWriter() = default;

    MonWriter(const MonWriter &) = delete;
    MonWriter &operator=(const MonWriter &) = delete;

    /**
     * Create @p path (truncating), write a placeholder header and the
     * series directory. @p interval is the sampling cadence in ticks
     * (must be nonzero); @p series fixes the column set and order for
     * the file's lifetime.
     */
    bool open(const std::string &path, Tick interval,
              std::vector<SeriesDesc> series, Options opt);

    bool
    open(const std::string &path, Tick interval,
         std::vector<SeriesDesc> series)
    {
        return open(path, interval, std::move(series), Options());
    }

    /**
     * Append one row: @p values[i] is series[i] sampled at @p tick.
     * Ticks must be strictly increasing. Errors (I/O, arity mismatch,
     * non-monotonic tick) are sticky and reported by close().
     */
    void addSample(Tick tick, const std::vector<double> &values);

    /**
     * Flush the final chunk and patch the real sample count into the
     * header. Returns false if anything failed; the file is then
     * invalid by construction (header still holds the sentinel).
     */
    bool close();

    bool isOpen() const { return file_.isOpen(); }
    std::uint64_t samplesWritten() const { return samples_; }
    const std::string &error() const { return file_.error(); }

  private:
    void flushChunk();

    chunkfile::Writer file_{monFormat};
    Options opt_;
    std::size_t seriesCount_ = 0;

    /** Buffered rows of the open chunk (row-major; column-encoded at
     *  flush, when each column's integrality is known). */
    std::vector<Tick> ticks_;
    std::vector<double> rows_;

    std::uint64_t samples_ = 0; ///< total appended
    Tick lastTick_ = 0;
    bool anySample_ = false;
};

} // namespace tako::mon

#endif // TAKO_MON_WRITER_HH
