/**
 * @file
 * takomon-v1: the on-disk binary time-series format.
 *
 * A monitor file holds the sampled trajectory of every selected
 * StatsRegistry series — counters plus histogram count/sum/max — at a
 * fixed sim-tick cadence. Samples are a pure function of simulation
 * state (the sink never records host.* gauges), so the file is
 * bit-identical across host thread counts and shard counts for the
 * same run. The layout (all integers little-endian; full byte-level
 * spec in DESIGN.md Sec. 4.10):
 *
 *   FileHeader (40 bytes)
 *     char[8] magic        "takomon1"
 *     u32     version      1
 *     u32     flags        none defined; must be zero
 *     u64     interval     ticks between samples (nonzero)
 *     u32     seriesCount  series in the directory
 *     u32     dirBytes     directory payload size in bytes
 *     u64     sampleCount  total samples (rows) in the file
 *
 *   Directory (dirBytes + 4)
 *     per series: u8 kind (SeriesKind), LEB128 nameLen, name bytes
 *     u32 crc32 of the dirBytes payload
 *
 *   Chunks until end of file (the shared container's framing, chunk
 *   magic 0x31484d54 "TMH1"; see sim/chunk_file.hh), each payload
 *   holding column-encoded rows.
 *
 * Chunk payload: columns, not rows. The tick column comes first — one
 * LEB128 tick delta per row, with the delta context reset at the chunk
 * boundary (the first value is the absolute tick), so chunks decode
 * independently. Then one column per series, in directory order,
 * introduced by a one-byte encoding tag:
 *
 *   0  integer deltas: every value in the column is an integral double;
 *      each row is zigzag(LEB128) of the wrapping int64 difference from
 *      the previous row's value (context starts at 0 per chunk).
 *   1  raw: 8-byte IEEE-754 little-endian doubles, one per row.
 *
 * Counters are almost always integral (event and access counts), so
 * the common case is one or two bytes per value; a single fractional
 * value (e.g. energy in pJ) demotes only its own column in its own
 * chunk to raw doubles.
 *
 * The header's sampleCount is written as the ~0 sentinel at open() and
 * patched to the real count on close(); a writer that dies mid-stream
 * leaves the sentinel behind, which readers always reject — even when
 * no chunk was flushed, where a zero placeholder would be
 * indistinguishable from a legitimately empty closed file. The
 * container (sim/chunk_file.hh) enforces this for takotrace too, and
 * also supplies the LEB128, zigzag and CRC-32 helpers.
 */

#ifndef TAKO_MON_FORMAT_HH
#define TAKO_MON_FORMAT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/chunk_file.hh"
#include "sim/types.hh"

namespace tako::mon
{

// The codec primitives, shared with takotrace.
using chunkfile::crc32;
using chunkfile::getVarint;
using chunkfile::putVarint;
using chunkfile::zigzagDecode;
using chunkfile::zigzagEncode;

/** What a series samples from the registry. */
enum class SeriesKind : std::uint8_t
{
    Counter = 0,   ///< Counter::value()
    HistCount = 1, ///< Histogram::count()
    HistSum = 2,   ///< Histogram::sum()
    HistMax = 3,   ///< Histogram::max()
};

constexpr unsigned numSeriesKinds = 4;

/** One directory entry: a named series of one registry statistic. */
struct SeriesDesc
{
    std::string name;
    SeriesKind kind = SeriesKind::Counter;

    bool operator==(const SeriesDesc &) const = default;
};

// ---- file constants ----------------------------------------------------

constexpr std::array<char, 8> monMagic = {'t', 'a', 'k', 'o',
                                          'm', 'o', 'n', '1'};
constexpr std::uint32_t monVersion = 1;
constexpr std::uint32_t monChunkMagic = 0x31484d54; // "TMH1"
constexpr std::size_t monFileHeaderBytes = 40;
constexpr std::size_t monChunkHeaderBytes = chunkfile::chunkHeaderBytes;

/** The takomon instance of the chunked container: sampleCount at offset
 *  32 holds the unpatched sentinel until the writer closes. */
inline constexpr chunkfile::Format monFormat{
    "takomon", monMagic, monVersion, 0, monFileHeaderBytes, 32, 0,
    monChunkMagic, "sample"};

/** Column encoding tags. */
constexpr std::uint8_t colIntDeltas = 0;
constexpr std::uint8_t colRawDoubles = 1;

/** Suffix appended to a histogram name per derived series. */
const char *seriesKindSuffix(SeriesKind kind);

} // namespace tako::mon

#endif // TAKO_MON_FORMAT_HH
