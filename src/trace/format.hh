/**
 * @file
 * takotrace-v1: the on-disk binary memory-trace format.
 *
 * A trace file is a stream of memory-access records compact enough to
 * hold billions of accesses and simple enough to decode at tens of
 * millions of records per second. The layout (all integers little-
 * endian; full byte-level spec in DESIGN.md Sec. 4.9):
 *
 *   FileHeader (32 bytes)
 *     char[8] magic        "takotrc1"
 *     u32     version      1
 *     u32     flags        bit 0: records carry timestamps
 *     u64     recordCount  total records; ~0 until the writer closes
 *     u64     chunkCount   number of chunks; ~0 until the writer closes
 *
 *   chunkCount x Chunk (the shared container's framing, chunk magic
 *   0x314b4843 "CHK1"; see sim/chunk_file.hh), each payload holding
 *   delta + LEB128 encoded records.
 *
 * Record encoding. The per-chunk context (previous address, size,
 * tenant, timestamp) resets at every chunk boundary so chunks decode
 * independently and corruption is contained to one chunk. Each record:
 *
 *   head byte:  bits 0-2  op (TraceOp)
 *               bit  3    explicit size follows (else: previous size)
 *               bit  4    explicit tenant follows (else: previous)
 *               bit  5    timestamp delta follows (file flag required)
 *               bits 6-7  reserved, must be zero
 *   LEB128      zigzag(addr - prevAddr)
 *   [LEB128]    size in bytes                  (if bit 3)
 *   [LEB128]    tenant id                      (if bit 4)
 *   [LEB128]    ts - prevTs (ts non-decreasing) (if bit 5)
 *
 * Every structural violation — short file, bad magic, wrong version,
 * chunk overrun, CRC mismatch, record-count mismatch, reserved head
 * bits — is a hard decode error: corrupt or truncated traces fail
 * loudly, never silently replay a prefix.
 */

#ifndef TAKO_TRACE_FORMAT_HH
#define TAKO_TRACE_FORMAT_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/chunk_file.hh"
#include "sim/types.hh"

namespace tako::trace
{

/** Operation of one trace record, mirroring the Guest access kinds. */
enum class TraceOp : std::uint8_t
{
    Load = 0,
    Store = 1,
    StreamLoad = 2,  ///< use-once / non-temporal read
    StreamStore = 3, ///< no-fetch / write-combining store
    AtomicAdd = 4,
    AtomicSwap = 5,
};

constexpr unsigned numTraceOps = 6;

/** One decoded memory access. */
struct TraceRecord
{
    Addr addr = 0;
    std::uint32_t size = 8;   ///< bytes touched, starting at addr
    TraceOp op = TraceOp::Load;
    std::uint32_t tenant = 0; ///< origin stream (user/connection/thread)
    std::uint64_t ts = 0;     ///< optional capture timestamp (cycles)

    bool operator==(const TraceRecord &) const = default;
};

// ---- file constants ----------------------------------------------------

constexpr std::array<char, 8> traceMagic = {'t', 'a', 'k', 'o',
                                            't', 'r', 'c', '1'};
constexpr std::uint32_t traceVersion = 1;
constexpr std::uint32_t chunkMagic = 0x314b4843; // "CHK1"
constexpr std::uint32_t flagTimestamps = 1u << 0;
constexpr std::size_t fileHeaderBytes = 32;
constexpr std::size_t chunkHeaderBytes = chunkfile::chunkHeaderBytes;

/** Record-head-byte layout. */
constexpr std::uint8_t headOpMask = 0x07;
constexpr std::uint8_t headHasSize = 1u << 3;
constexpr std::uint8_t headHasTenant = 1u << 4;
constexpr std::uint8_t headHasTs = 1u << 5;
constexpr std::uint8_t headReserved = 0xc0;

// ---- container ---------------------------------------------------------

/** The takotrace instance of the chunked container (sim/chunk_file.hh):
 *  recordCount at offset 16 and chunkCount at 24 hold the unpatched
 *  sentinel until the writer closes. */
inline constexpr chunkfile::Format traceFormat{
    "takotrace", traceMagic, traceVersion, flagTimestamps,
    fileHeaderBytes, 16, 24, chunkMagic, "record"};

// The codec primitives, shared with takomon.
using chunkfile::crc32;
using chunkfile::getVarint;
using chunkfile::putVarint;
using chunkfile::zigzagDecode;
using chunkfile::zigzagEncode;

/** Human-readable op name ("load", "store", ...). */
const char *traceOpName(TraceOp op);

} // namespace tako::trace

#endif // TAKO_TRACE_FORMAT_HH
