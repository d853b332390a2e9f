/**
 * @file
 * Chunked-container tests (sim/chunk_file.hh), run once per format that
 * sits on it: one table of malformed inputs, applied to a good
 * takotrace file and a good takomon file alike, plus one golden-bytes
 * file per writer so any drift in the framing fails loudly.
 *
 * Labeled `sanfast`: the container's loader bounds-checks every header
 * against the mapping, so ASan/UBSan coverage of each malformed input
 * is the point.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mon/reader.hh"
#include "mon/writer.hh"
#include "sim/chunk_file.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

using namespace tako;
using chunkfile::get32;
using chunkfile::put32;
using chunkfile::put64;

namespace
{

/** Unique-per-test scratch path, cleaned up on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &stem)
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "tako_" + info->test_suite_name() +
                "_" + info->name() + "_" + stem;
    }
    ~ScratchFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (const std::uint8_t b : bytes) {
        s.push_back(digits[b >> 4]);
        s.push_back(digits[b & 0xf]);
    }
    return s;
}

/** One format on the container, seen through its public codec API. */
struct Codec
{
    const char *name;
    const chunkfile::Format &format;
    /** Write @p n items, @p perChunk to a chunk, to @p path. */
    std::function<void(const std::string &path, unsigned n,
                       unsigned perChunk)>
        write;
    /** Open and drain @p path; the reader's error ("" when clean). */
    std::function<std::string(const std::string &path)> drain;
    /** Offset of the first chunk header in a file @p write made. */
    std::function<std::size_t(const std::vector<std::uint8_t> &)>
        firstChunk;
};

const Codec traceCodec{
    "takotrace",
    trace::traceFormat,
    [](const std::string &path, unsigned n, unsigned perChunk) {
        trace::TraceWriter w;
        trace::TraceWriter::Options opt;
        opt.timestamps = true;
        opt.chunkRecords = perChunk;
        ASSERT_TRUE(w.open(path, opt)) << w.error();
        for (unsigned i = 0; i < n; ++i) {
            trace::TraceRecord r;
            r.addr = 0x4000 + 72 * i;
            r.op = static_cast<trace::TraceOp>(i % trace::numTraceOps);
            r.size = i % 3 ? 8 : 64;
            r.tenant = i % 4;
            r.ts = 10 * i;
            w.append(r);
        }
        ASSERT_TRUE(w.close()) << w.error();
    },
    [](const std::string &path) {
        trace::TraceReader r;
        if (r.open(path)) {
            trace::TraceRecord rec;
            while (r.next(rec)) {
            }
        }
        return r.error();
    },
    [](const std::vector<std::uint8_t> &) {
        return trace::fileHeaderBytes;
    },
};

const Codec monCodec{
    "takomon",
    mon::monFormat,
    [](const std::string &path, unsigned n, unsigned perChunk) {
        mon::MonWriter w;
        mon::MonWriter::Options opt;
        opt.chunkSamples = perChunk;
        ASSERT_TRUE(w.open(path, 5,
                           {{"a", mon::SeriesKind::Counter},
                            {"b", mon::SeriesKind::HistSum}},
                           opt))
            << w.error();
        for (unsigned i = 0; i < n; ++i)
            w.addSample(5 * (i + 1), {3.0 * i, 0.5 + i});
        ASSERT_TRUE(w.close()) << w.error();
    },
    [](const std::string &path) {
        mon::MonReader r;
        if (r.open(path)) {
            Tick t;
            std::vector<double> vals;
            while (r.next(t, vals)) {
            }
        }
        return r.error();
    },
    [](const std::vector<std::uint8_t> &b) {
        // Header, then dirBytes of directory and its CRC.
        return mon::monFileHeaderBytes + get32(b.data() + 28) + 4;
    },
};

/**
 * Apply the malformed-input table to a good @p codec file: each entry
 * must fail to read, loudly, with its expected message.
 */
void
expectMalformedInputsRejected(const Codec &codec)
{
    const chunkfile::Format &fmt = codec.format;
    ScratchFile f("table");
    codec.write(f.path(), 10, 4); // chunks of 4, 4, 2 items
    const std::vector<std::uint8_t> good = readAll(f.path());
    ASSERT_EQ(codec.drain(f.path()), "");

    // Find each chunk's header offset and payload end.
    std::vector<std::size_t> starts, ends;
    for (std::size_t off = codec.firstChunk(good); off < good.size();) {
        starts.push_back(off);
        off += chunkfile::chunkHeaderBytes + get32(&good[off + 8]);
        ends.push_back(off);
    }
    ASSERT_EQ(starts.size(), 3u);
    ASSERT_EQ(ends.back(), good.size());

    // One table row: mutate a copy of the good file, then reading it
    // must fail with @p expect, under the format's error prefix.
    auto add = [&](const std::string &what, const std::string &expect,
                   const std::function<void(std::vector<std::uint8_t> &)>
                       &mutate) {
        SCOPED_TRACE(std::string(codec.name) + ": " + what);
        std::vector<std::uint8_t> b = good;
        mutate(b);
        writeAll(f.path(), b);
        const std::string err = codec.drain(f.path());
        EXPECT_FALSE(err.empty()) << "silently accepted";
        EXPECT_NE(err.find(expect), std::string::npos) << err;
        EXPECT_EQ(err.rfind(std::string(codec.name) + " read: ", 0), 0u)
            << err;
    };
    auto cut = [&](std::size_t n, const std::string &expect) {
        add("cut to " + std::to_string(n) + " bytes", expect,
            [n](auto &b) { b.resize(n); });
    };

    // Truncation at and around every header and payload boundary.
    cut(fmt.headerBytes - 1, "shorter than a file header");
    for (std::size_t i = 0; i < starts.size(); ++i) {
        const std::string chunk = "chunk " + std::to_string(i);
        cut(starts[i], "chunks hold " + std::to_string(4 * i));
        cut(starts[i] + 1, "truncated at " + chunk + " header");
        cut(starts[i] + chunkfile::chunkHeaderBytes - 1,
            "truncated at " + chunk + " header");
        cut(starts[i] + chunkfile::chunkHeaderBytes,
            "truncated in " + chunk + " payload");
        cut(ends[i] - 1, "truncated in " + chunk + " payload");
    }

    const std::size_t c1 = starts[1];
    add("bad chunk magic", "chunk 1: bad magic",
        [&](auto &b) { b[c1] ^= 0xff; });
    add("zero-count chunk", "chunk 1: empty chunk",
        [&](auto &b) { put32(&b[c1 + 4], 0); });
    add("firstIndex gap", "chunk 1: firstIndex 5 != running count 4",
        [&](auto &b) { put64(&b[c1 + 16], 5); });
    add("payload CRC flip", "chunk 1: CRC mismatch",
        [&](auto &b) { b[c1 + chunkfile::chunkHeaderBytes] ^= 0x10; });
    add("stored CRC flip", "chunk 2: CRC mismatch",
        [&](auto &b) { b[starts[2] + 12] ^= 0x01; });
    add("garbage after the last chunk", "truncated at chunk 3 header",
        [](auto &b) { b.insert(b.end(), {1, 2, 3}); });
    add("a zeroed header after the last chunk", "chunk 3: bad magic",
        [](auto &b) { b.resize(b.size() + chunkfile::chunkHeaderBytes); });
    add("unpatched count", "(unclosed writer?)", [&](auto &b) {
        put64(&b[fmt.countOffset], chunkfile::unpatchedCount);
    });
    add("count off by one", "header says 11 " + std::string(fmt.item) +
                                "s, chunks hold 10",
        [&](auto &b) { put64(&b[fmt.countOffset], 11); });
    if (fmt.chunkCountOffset) {
        add("chunk count off by one", "header says 4 chunks, file holds 3",
            [&](auto &b) { put64(&b[fmt.chunkCountOffset], 4); });
        // A reader must not size anything from this field.
        add("huge chunk count", "chunks, file holds 3", [&](auto &b) {
            put64(&b[fmt.chunkCountOffset], std::uint64_t{1} << 60);
        });
    }
}

} // namespace

TEST(ChunkFile, MalformedTraceInputsFailLoudly)
{
    expectMalformedInputsRejected(traceCodec);
}

TEST(ChunkFile, MalformedMonInputsFailLoudly)
{
    expectMalformedInputsRejected(monCodec);
}

TEST(ChunkFile, EmptyClosedFilesReadBackEmpty)
{
    for (const Codec *codec : {&traceCodec, &monCodec}) {
        SCOPED_TRACE(codec->name);
        ScratchFile f("empty");
        codec->write(f.path(), 0, 4);
        EXPECT_EQ(codec->drain(f.path()), "");
    }
}

// ---- golden bytes ------------------------------------------------------
//
// One small fixed input per writer, pinned byte for byte: the framing,
// the header patch, and the payload codecs may only change on purpose.

TEST(ChunkFileGolden, TraceWriterBytes)
{
    ScratchFile f("golden.takotrace");
    traceCodec.write(f.path(), 5, 2);
    EXPECT_EQ(hex(readAll(f.path())),
              "74616b6f747263310100000001000000050000000000000003000000"
              "0000000043484b31020000000c0000006b22754e0000000000000000"
              "28808002400039900108010a43484b31020000000c000000a01a6dd3"
              "020000000000000032a0820202143b900140030a43484b3101000000"
              "05000000fbe99165040000000000000024c0840228");
}

TEST(ChunkFileGolden, MonWriterBytes)
{
    ScratchFile f("golden.takomon");
    monCodec.write(f.path(), 3, 2);
    EXPECT_EQ(hex(readAll(f.path())),
              "74616b6f6d6f6e310100000000000000050000000000000002000000"
              "0600000003000000000000000001610201622efd1bb6544d48310200"
              "00001600000039f2304b000000000000000005050000060100000000"
              "0000e03f000000000000f83f544d4831010000000c0000004729b616"
              "02000000000000000f000c010000000000000440");
}
