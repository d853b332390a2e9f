/**
 * @file
 * The chunked-file container shared by takotrace and takomon.
 *
 * Both binary formats are one container (DESIGN.md Sec. 4.9, "The
 * chunked container") with a format-specific file header and payload
 * codec on top. All integers are little-endian:
 *
 *   FileHeader (Format::headerBytes)
 *     char[8] magic        per format
 *     u32     version
 *     u32     flags        bits outside Format::knownFlags are rejected
 *     ...                  format fields, among them the u64 item count
 *                          (and, for takotrace, a u64 chunk count); the
 *                          writer leaves both at the ~0 sentinel until
 *                          close() patches the real values in
 *   [format bytes]         e.g. takomon's series directory
 *
 *   Chunks until end of file:
 *     ChunkHeader (24 bytes)
 *       u32 magic          per-format chunk magic
 *       u32 count          items in this chunk (nonzero)
 *       u32 payloadBytes   encoded payload size in bytes
 *       u32 crc32          IEEE CRC-32 of the payload bytes
 *       u64 firstIndex     file-wide index of the chunk's first item
 *     payloadBytes of format-specific payload
 *
 * Reader maps the file (pread copy when mmap fails), checks the common
 * header fields, and walks every chunk header once — bounds, magic,
 * non-empty, firstIndex continuity, counts against the header — before
 * a single payload byte is decoded. Payload CRCs are checked lazily,
 * on the first request for each chunk, so opening a large file stays
 * O(chunks). Errors are sticky. Writer emits the header with its count
 * sentinels, frames each payload with a CRC'd chunk header, and patches
 * the counts on close(); a writer abandoned before close() leaves the
 * sentinel, which Reader always rejects.
 *
 * The LEB128, zigzag and CRC-32 primitives the payload codecs use live
 * here too, so both formats share one implementation of each.
 */

#ifndef TAKO_SIM_CHUNK_FILE_HH
#define TAKO_SIM_CHUNK_FILE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tako::chunkfile
{

// ---- little-endian fields ----------------------------------------------

inline std::uint32_t
get32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t
get64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(get32(p)) |
           static_cast<std::uint64_t>(get32(p + 4)) << 32;
}

inline void
put32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void
put64(std::uint8_t *p, std::uint64_t v)
{
    put32(p, static_cast<std::uint32_t>(v));
    put32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

// ---- LEB128 / zigzag ---------------------------------------------------

inline void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/**
 * Decode one LEB128 value from [@p p, @p end). Advances @p p past the
 * value. Returns false (leaving @p out unspecified) on truncation or a
 * varint longer than 64 bits.
 */
inline bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p != end && shift < 64) {
        const std::uint8_t byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            out = v;
            return true;
        }
        shift += 7;
    }
    return false;
}

constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

// ---- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) -------------------
//
// Matches zlib/binascii.crc32 so the Python validators can verify
// chunks with the standard library. Slicing-by-8: table k advances the
// register over a byte followed by k zero bytes, so eight lookups fold
// eight input bytes per step; the tail goes a byte at a time.

namespace detail
{

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

inline constexpr CrcTables crcTables = makeCrcTables();

constexpr std::uint32_t
load32le(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

} // namespace detail

inline std::uint32_t
crc32(const std::uint8_t *data, std::size_t len,
      std::uint32_t seed = 0)
{
    const detail::CrcTables &t = detail::crcTables;
    std::uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; data += 8, len -= 8) {
        const std::uint32_t lo = detail::load32le(data) ^ c;
        const std::uint32_t hi = detail::load32le(data + 4);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++data, --len)
        c = t[0][(c ^ *data) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// ---- container ---------------------------------------------------------

constexpr std::size_t chunkHeaderBytes = 24;

/** Header count value written at open() and replaced on close(): an
 *  impossible count, so an unclosed file can never read as valid. */
constexpr std::uint64_t unpatchedCount = ~std::uint64_t{0};

/** What distinguishes one chunked format from another. */
struct Format
{
    const char *name;             ///< "takotrace": error-message prefix
    std::array<char, 8> magic;
    std::uint32_t version;
    std::uint32_t knownFlags;     ///< flag bits this version defines
    std::size_t headerBytes;      ///< fixed file-header size
    std::size_t countOffset;      ///< header offset of the u64 item count
    std::size_t chunkCountOffset; ///< ... of a u64 chunk count; 0 = none
    std::uint32_t chunkMagic;
    const char *item;             ///< "record": singular item noun
};

/** One chunk found by Reader's header walk. */
struct Chunk
{
    std::size_t payloadOff = 0; ///< byte offset of the payload
    std::uint32_t payloadBytes = 0;
    std::uint32_t count = 0;    ///< items encoded in the payload
    std::uint32_t crc = 0;
    bool crcChecked = false;
};

class Reader
{
  public:
    explicit Reader(const Format &fmt) : fmt_(fmt) {}
    ~Reader() { close(); }

    Reader(const Reader &) = delete;
    Reader &operator=(const Reader &) = delete;

    /**
     * Map @p path and check the common header fields (size, magic,
     * version, flags). On failure returns false with error() set; the
     * file is then closed.
     */
    bool open(const std::string &path);

    /**
     * Walk the chunk headers from byte @p off to the end of the file
     * and check them against the header's counts. On failure returns
     * false with error() set; the file is then closed.
     */
    bool walk(std::size_t off);

    /** Fail open() with "'path': @p msg" and close. Returns false. */
    bool reject(const std::string &msg);

    /** Record @p msg as the (sticky) error. Returns false. */
    bool fail(const std::string &msg);

    /**
     * Chunk @p idx's payload, CRC-checked the first time it is asked
     * for. Null, with error() set, on a CRC mismatch.
     */
    const std::uint8_t *payload(std::size_t idx);

    /** Unmap. Keeps error(). */
    void close();

    bool isOpen() const { return data_ != nullptr; }
    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    std::uint32_t flags() const { return flags_; }
    /** The header's item count. */
    std::uint64_t count() const { return count_; }
    const std::vector<Chunk> &chunks() const { return chunks_; }
    const std::string &error() const { return error_; }

  private:
    const Format &fmt_;
    std::string path_;
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;            ///< data_ is an mmap (vs. heap copy)
    std::vector<std::uint8_t> heap_; ///< fallback when mmap fails

    std::string error_;
    std::uint32_t flags_ = 0;
    std::uint64_t count_ = 0;
    std::vector<Chunk> chunks_;
};

class Writer
{
  public:
    explicit Writer(const Format &fmt) : fmt_(fmt) {}
    /** Abandoned without close(): the count sentinels stay in place so
     *  readers reject the file. */
    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    /**
     * Create @p path (truncating) and write @p head: the file header,
     * whose magic, version, @p flags and count sentinels this fills in,
     * followed by any format bytes that precede the chunks.
     */
    bool open(const std::string &path, std::vector<std::uint8_t> head,
              std::uint32_t flags);

    /** Frame @p payload (holding @p count items) as the next chunk. */
    bool writeChunk(std::uint32_t count,
                    const std::vector<std::uint8_t> &payload);

    /** Patch the real counts into the header and close the file.
     *  Returns false if anything failed since open(). */
    bool close();

    /** Record @p msg as the (sticky) error. */
    void setError(const std::string &msg);

    bool isOpen() const { return file_ != nullptr; }
    /** Open with no error: appends may proceed. */
    bool ok() const { return file_ && error_.empty(); }
    const std::string &error() const { return error_; }

  private:
    const Format &fmt_;
    std::FILE *file_ = nullptr;
    std::string error_;
    std::uint64_t count_ = 0;  ///< items in written chunks
    std::uint64_t chunks_ = 0; ///< chunks written
};

} // namespace tako::chunkfile

#endif // TAKO_SIM_CHUNK_FILE_HH
