/**
 * @file
 * takotrace tests: codec round-trips, loud failure on every corruption
 * class (truncation, bad magic, wrong version, CRC, reserved bits,
 * unclosed writer), text ingest, generators, and replay determinism.
 * The container-level cases both formats share are in
 * test_chunk_file.cc.
 *
 * Labeled `sanfast`: the reader mmaps files and decodes records straight
 * out of the mapping, so ASan/TSan coverage of the open/next/rewind/
 * close lifetime is the point, not a nice-to-have.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "system/system.hh"
#include "trace/format.hh"
#include "trace/gen.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/textio.hh"
#include "trace/writer.hh"

using namespace tako;
using namespace tako::trace;

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

/**
 * Deterministic record stream exercising every head-byte path: op
 * changes, size/tenant stickiness, address deltas in both directions,
 * timestamp plateaus. Plain LCG — no wall-clock randomness in tests.
 */
std::vector<TraceRecord>
sampleRecords(std::size_t n, bool timestamps)
{
    std::vector<TraceRecord> recs;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t ts = 0;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        TraceRecord r;
        r.op = static_cast<TraceOp>((x >> 16) % numTraceOps);
        // Mix of forward and backward address deltas.
        r.addr = 0x1000'0000ull + ((x >> 24) % 0xffff) * 8;
        r.size = (x & 1) ? 8 : 64 + static_cast<std::uint32_t>(x % 128);
        r.tenant = static_cast<std::uint32_t>((x >> 8) % 5);
        if (timestamps)
            ts += (x >> 32) % 3; // plateaus: equal timestamps are legal
        r.ts = timestamps ? ts : 0;
        recs.push_back(r);
    }
    return recs;
}

void
writeTrace(const std::string &path, const std::vector<TraceRecord> &recs,
           bool timestamps, std::uint32_t chunkRecords = 64)
{
    TraceWriter w;
    TraceWriter::Options opt;
    opt.timestamps = timestamps;
    opt.chunkRecords = chunkRecords;
    ASSERT_TRUE(w.open(path, opt)) << w.error();
    for (const TraceRecord &r : recs)
        w.append(r);
    ASSERT_TRUE(w.close()) << w.error();
}

} // namespace

// ---- primitives --------------------------------------------------------

TEST(TraceFormat, VarintRoundTripsEdgeValues)
{
    const std::uint64_t values[] = {0,    1,        0x7f,      0x80,
                                    0x3fff, 0x4000, 0xffffffffull,
                                    0xffffffffffffffffull};
    for (const std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        putVarint(buf, v);
        const std::uint8_t *p = buf.data();
        std::uint64_t out = 0;
        ASSERT_TRUE(getVarint(p, buf.data() + buf.size(), out));
        EXPECT_EQ(out, v);
        EXPECT_EQ(p, buf.data() + buf.size());
    }
}

TEST(TraceFormat, VarintRejectsTruncation)
{
    std::vector<std::uint8_t> buf;
    putVarint(buf, 0x123456789abcdefull);
    for (std::size_t cut = 0; cut + 1 < buf.size(); ++cut) {
        const std::uint8_t *p = buf.data();
        std::uint64_t out;
        EXPECT_FALSE(getVarint(p, buf.data() + cut, out));
    }
}

TEST(TraceFormat, ZigzagRoundTripsSignedDeltas)
{
    const std::int64_t values[] = {0, 1, -1, 63, -64,
                                   INT64_MAX, INT64_MIN};
    for (const std::int64_t v : values)
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
}

namespace
{

/** Bit-at-a-time IEEE CRC-32, the definition the fast one must match. */
std::uint32_t
crc32Bitwise(const std::uint8_t *data, std::size_t len)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

} // namespace

TEST(TraceFormat, Crc32MatchesIeeeReferenceVector)
{
    // The classic check value; also what Python's binascii.crc32
    // computes, which tools/validate_takotrace.py relies on.
    const char *s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(s), 9),
              0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);

    // Every length across the 8-byte blocks and the byte tail, at every
    // alignment of the start.
    std::vector<std::uint8_t> buf(257 + 8);
    std::uint32_t x = 0x12345678u;
    for (std::uint8_t &b : buf) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<std::uint8_t>(x >> 24);
    }
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 257; ++len) {
            ASSERT_EQ(crc32(buf.data() + off, len),
                      crc32Bitwise(buf.data() + off, len))
                << "offset " << off << ", length " << len;
        }
    }
}

// ---- writer/reader round-trips -----------------------------------------

TEST(TraceCodec, RoundTripsRecordsAcrossChunks)
{
    ScratchFile f("rt.takotrace");
    const auto recs = sampleRecords(1000, true);
    writeTrace(f.path(), recs, true, /*chunkRecords=*/64);

    TraceReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_TRUE(r.hasTimestamps());
    EXPECT_EQ(r.recordCount(), recs.size());
    EXPECT_GT(r.chunkCount(), 1u) << "test must span chunk boundaries";

    TraceRecord got;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(r.next(got)) << "at record " << i << ": "
                                 << r.error();
        EXPECT_EQ(got, recs[i]) << "at record " << i;
    }
    EXPECT_FALSE(r.next(got));
    EXPECT_TRUE(r.error().empty()) << r.error();

    // rewind() restarts cleanly from record 0.
    r.rewind();
    ASSERT_TRUE(r.next(got));
    EXPECT_EQ(got, recs[0]);
}

TEST(TraceCodec, RoundTripsWithoutTimestamps)
{
    ScratchFile f("nots.takotrace");
    auto recs = sampleRecords(200, false);
    writeTrace(f.path(), recs, false);

    TraceReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_FALSE(r.hasTimestamps());
    TraceRecord got;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(r.next(got));
        EXPECT_EQ(got, recs[i]) << "at record " << i;
        EXPECT_EQ(got.ts, 0u);
    }
    EXPECT_FALSE(r.next(got));
    EXPECT_TRUE(r.error().empty());
}

TEST(TraceCodec, WriterRejectsNonMonotonicTimestamps)
{
    ScratchFile f("mono.takotrace");
    TraceWriter w;
    TraceWriter::Options opt;
    opt.timestamps = true;
    ASSERT_TRUE(w.open(f.path(), opt));
    TraceRecord r;
    r.ts = 100;
    w.append(r);
    r.ts = 99; // goes backwards
    w.append(r);
    EXPECT_FALSE(w.close());
    EXPECT_NE(w.error().find("monoton"), std::string::npos)
        << w.error();
}

// ---- corruption classes all fail loudly --------------------------------

class TraceCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        file_ = std::make_unique<ScratchFile>("corrupt.takotrace");
        writeTrace(file_->path(), sampleRecords(300, true), true, 64);
        bytes_ = readAll(file_->path());
        ASSERT_GT(bytes_.size(), fileHeaderBytes + chunkHeaderBytes);
    }

    /** Write bytes_ back and expect reading them to fail loudly. */
    void
    expectLoudFailure(const std::string &needle)
    {
        writeAll(file_->path(), bytes_);
        expectFileRejected(needle);
    }

    /** Expect open() (or, for lazy CRC checks, iteration) of the file
     *  to fail with @p needle somewhere in the error. */
    void
    expectFileRejected(const std::string &needle)
    {
        TraceReader r;
        if (r.open(file_->path())) {
            TraceRecord rec;
            while (r.next(rec)) {
            }
        }
        EXPECT_FALSE(r.error().empty())
            << "corruption was silently accepted";
        EXPECT_NE(r.error().find(needle), std::string::npos)
            << "error was: " << r.error();
    }

    std::unique_ptr<ScratchFile> file_;
    std::vector<std::uint8_t> bytes_;
};

TEST_F(TraceCorruption, TruncatedFileRejected)
{
    bytes_.resize(bytes_.size() - 7);
    expectLoudFailure("truncated");
}

TEST_F(TraceCorruption, TruncatedToMidDirectoryRejected)
{
    bytes_.resize(fileHeaderBytes + chunkHeaderBytes / 2);
    expectLoudFailure("truncated");
}

TEST_F(TraceCorruption, BadMagicRejected)
{
    bytes_[0] ^= 0x20;
    expectLoudFailure("bad magic");
}

TEST_F(TraceCorruption, VersionMismatchRejected)
{
    bytes_[8] = 2; // version u32 at offset 8
    expectLoudFailure("version");
}

TEST_F(TraceCorruption, UnknownFlagBitsRejected)
{
    bytes_[12] |= 0x80; // flags u32 at offset 12
    expectLoudFailure("flag");
}

TEST_F(TraceCorruption, PayloadBitFlipFailsCrc)
{
    // Flip one bit in the first chunk's payload: header walk still
    // passes (CRCs are lazy), the first next() into the chunk fails.
    bytes_[fileHeaderBytes + chunkHeaderBytes + 3] ^= 0x01;
    expectLoudFailure("CRC mismatch");
}

/** Append @p n records to a writer on the fixture's file, then destroy
 *  the writer without close(), as a crashed recorder would. */
void
abandonWriter(const std::string &path, std::size_t n)
{
    TraceWriter w;
    TraceWriter::Options opt;
    opt.timestamps = true;
    opt.chunkRecords = 64;
    ASSERT_TRUE(w.open(path, opt)) << w.error();
    for (const TraceRecord &r : sampleRecords(n, true))
        w.append(r);
}

TEST_F(TraceCorruption, UnclosedWriterRejected)
{
    // Chunks 0-2 reach the disk; the header keeps its count sentinels.
    abandonWriter(file_->path(), 200);
    expectFileRejected("(unclosed writer?)");
}

TEST_F(TraceCorruption, UnclosedWriterWithoutChunksRejected)
{
    // No chunk was flushed: the file is a bare header, which must not
    // read back as a valid empty trace.
    abandonWriter(file_->path(), 10);
    ASSERT_EQ(readAll(file_->path()).size(), fileHeaderBytes);
    expectFileRejected("(unclosed writer?)");
}

TEST_F(TraceCorruption, RecordCountMismatchRejected)
{
    bytes_[16] ^= 0x01; // recordCount u64 at offset 16
    expectLoudFailure("records");
}

TEST(TraceCodec, ReservedHeadBitsRejected)
{
    // Hand-build a one-chunk file whose single record sets a reserved
    // head bit. The CRC is correct, so only the decoder can catch it.
    std::vector<std::uint8_t> payload;
    payload.push_back(0x40); // reserved bit 6 + op=0
    putVarint(payload, zigzagEncode(0x1000));

    std::vector<std::uint8_t> bytes(fileHeaderBytes, 0);
    std::memcpy(bytes.data(), traceMagic.data(), traceMagic.size());
    bytes[8] = 1;  // version
    bytes[16] = 1; // recordCount
    bytes[24] = 1; // chunkCount
    std::vector<std::uint8_t> ch(chunkHeaderBytes, 0);
    const std::uint32_t magic = chunkMagic;
    const std::uint32_t crc = crc32(payload.data(), payload.size());
    std::memcpy(ch.data(), &magic, 4);
    ch[4] = 1; // records
    ch[8] = static_cast<std::uint8_t>(payload.size());
    std::memcpy(ch.data() + 12, &crc, 4);
    bytes.insert(bytes.end(), ch.begin(), ch.end());
    bytes.insert(bytes.end(), payload.begin(), payload.end());

    ScratchFile f("reserved.takotrace");
    writeAll(f.path(), bytes);
    TraceReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    TraceRecord rec;
    EXPECT_FALSE(r.next(rec));
    EXPECT_NE(r.error().find("reserved"), std::string::npos)
        << r.error();
}

// ---- text ingest / dump ------------------------------------------------

TEST(TraceText, ParsesOpsAndOptionalFields)
{
    std::uint32_t prevSize = 8;
    std::string err;
    TraceRecord r;

    ASSERT_EQ(parseTraceLine("R 0x1000", r, prevSize, err), 1) << err;
    EXPECT_EQ(r.op, TraceOp::Load);
    EXPECT_EQ(r.addr, 0x1000u);
    EXPECT_EQ(r.size, 8u);

    ASSERT_EQ(parseTraceLine("store 2000 64 3 77", r, prevSize, err), 1);
    EXPECT_EQ(r.op, TraceOp::Store);
    EXPECT_EQ(r.size, 64u);
    EXPECT_EQ(r.tenant, 3u);
    EXPECT_EQ(r.ts, 77u);

    // Size is sticky across lines.
    ASSERT_EQ(parseTraceLine("SW 0x40", r, prevSize, err), 1);
    EXPECT_EQ(r.op, TraceOp::StreamStore);
    EXPECT_EQ(r.size, 64u);

    // Pin's pinatrace format: leading ip column with a colon.
    ASSERT_EQ(parseTraceLine("0x7f00001234: W 0x2000 8", r, prevSize,
                             err),
              1);
    EXPECT_EQ(r.op, TraceOp::Store);
    EXPECT_EQ(r.addr, 0x2000u);

    EXPECT_EQ(parseTraceLine("# comment", r, prevSize, err), 0);
    EXPECT_EQ(parseTraceLine("", r, prevSize, err), 0);

    EXPECT_EQ(parseTraceLine("FROB 0x1000", r, prevSize, err), -1);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_EQ(parseTraceLine("R 0x1 8 0 1 junk", r, prevSize, err), -1);
}

TEST(TraceText, IngestDumpRoundTripsByteIdentically)
{
    ScratchFile bin("ingest.takotrace");
    const std::string text = "# demo\n"
                             "load 0x1000 8 0 1\n"
                             "store 0x1040 64 1 2\n"
                             "sr 0x2000 64 1 2\n"
                             "a 0x3000 8 2 5\n";
    {
        TraceWriter w;
        TraceWriter::Options opt;
        opt.timestamps = true;
        ASSERT_TRUE(w.open(bin.path(), opt));
        std::istringstream in(text);
        const IngestResult res = ingestText(in, w);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.records, 4u);
        EXPECT_EQ(res.skipped, 1u);
        ASSERT_TRUE(w.close()) << w.error();
    }
    TraceReader r;
    ASSERT_TRUE(r.open(bin.path())) << r.error();
    std::ostringstream dump;
    TraceRecord rec;
    while (r.next(rec))
        formatTraceLine(dump, rec, r.hasTimestamps());
    EXPECT_TRUE(r.error().empty()) << r.error();
    EXPECT_EQ(dump.str(), "load 0x1000 8 0 1\n"
                          "store 0x1040 64 1 2\n"
                          "stream-load 0x2000 64 1 2\n"
                          "atomic-add 0x3000 8 2 5\n");
}

// ---- generators --------------------------------------------------------

TEST(TraceGen, EmitsExactRecordCountForEveryKind)
{
    for (const std::string &kind : genKinds()) {
        ScratchFile f(kind + ".takotrace");
        GenParams p;
        p.kind = kind;
        p.records = 500;
        p.tenants = 6;
        TraceWriter w;
        TraceWriter::Options opt;
        opt.timestamps = true;
        ASSERT_TRUE(w.open(f.path(), opt));
        std::string err;
        ASSERT_TRUE(generateTrace(p, w, err)) << kind << ": " << err;
        ASSERT_TRUE(w.close()) << w.error();

        TraceReader r;
        ASSERT_TRUE(r.open(f.path())) << kind << ": " << r.error();
        EXPECT_EQ(r.recordCount(), 500u) << kind;
        TraceRecord rec;
        std::uint64_t n = 0, prevTs = 0;
        while (r.next(rec)) {
            ++n;
            EXPECT_GE(rec.ts, prevTs) << kind;
            prevTs = rec.ts;
            EXPECT_LT(rec.tenant, 6u) << kind;
        }
        EXPECT_TRUE(r.error().empty()) << kind << ": " << r.error();
        EXPECT_EQ(n, 500u) << kind;
    }
}

TEST(TraceGen, SameSeedSameBytesDifferentSeedDifferentBytes)
{
    auto gen = [](const std::string &path, std::uint64_t seed) {
        GenParams p;
        p.kind = "mix";
        p.records = 400;
        p.seed = seed;
        TraceWriter w;
        TraceWriter::Options opt;
        opt.timestamps = true;
        ASSERT_TRUE(w.open(path, opt));
        std::string err;
        ASSERT_TRUE(generateTrace(p, w, err)) << err;
        ASSERT_TRUE(w.close());
    };
    ScratchFile a("a.takotrace"), b("b.takotrace"), c("c.takotrace");
    gen(a.path(), 7);
    gen(b.path(), 7);
    gen(c.path(), 8);
    EXPECT_EQ(readAll(a.path()), readAll(b.path()));
    EXPECT_NE(readAll(a.path()), readAll(c.path()));
}

TEST(TraceGen, RejectsInvalidParams)
{
    ScratchFile f("bad.takotrace");
    TraceWriter w;
    ASSERT_TRUE(w.open(f.path()));
    std::string err;
    GenParams p;
    p.kind = "does-not-exist";
    EXPECT_FALSE(generateTrace(p, w, err));
    EXPECT_FALSE(err.empty());
}

// ---- replay ------------------------------------------------------------

namespace
{

SystemConfig
tinySystem(unsigned cores)
{
    SystemConfig cfg = SystemConfig::forCores(cores);
    cfg.mem.l1Size = 2 * 1024;
    cfg.mem.l2Size = 8 * 1024;
    cfg.mem.l3BankSize = 32 * 1024;
    return cfg;
}

} // namespace

TEST(TraceReplay, IsDeterministicAndCountsRecords)
{
    ScratchFile f("replay.takotrace");
    GenParams p;
    p.kind = "kv";
    p.records = 2000;
    p.tenants = 7;
    TraceWriter w;
    TraceWriter::Options opt;
    opt.timestamps = true;
    ASSERT_TRUE(w.open(f.path(), opt));
    std::string err;
    ASSERT_TRUE(generateTrace(p, w, err)) << err;
    ASSERT_TRUE(w.close());

    TraceReplayConfig cfg;
    cfg.path = f.path();
    const TraceReplayResult a = runTraceReplay(cfg, tinySystem(4));
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.records, 2000u);
    EXPECT_EQ(a.tenantsSeen, 7u);
    EXPECT_GT(a.metrics.cycles, 0u);

    const TraceReplayResult b = runTraceReplay(cfg, tinySystem(4));
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
    EXPECT_EQ(a.metrics.dramReads, b.metrics.dramReads);
    EXPECT_EQ(a.metrics.coreInstrs, b.metrics.coreInstrs);
    // extras minus the wall-clock host.* keys must be bit-identical.
    auto nonHost = [](const std::map<std::string, double> &m) {
        std::map<std::string, double> out;
        for (const auto &[k, v] : m)
            if (k.rfind("host.", 0) != 0)
                out.emplace(k, v);
        return out;
    };
    EXPECT_EQ(nonHost(a.metrics.extra), nonHost(b.metrics.extra));
}

TEST(TraceReplay, RecorderRoundTripReplays)
{
    ScratchFile src("src.takotrace"), rec("rec.takotrace"),
        rec4("rec4.takotrace");
    GenParams p;
    p.kind = "scan";
    p.records = 1000;
    p.tenants = 4;
    TraceWriter w;
    TraceWriter::Options opt;
    opt.timestamps = true;
    ASSERT_TRUE(w.open(src.path(), opt));
    std::string err;
    ASSERT_TRUE(generateTrace(p, w, err)) << err;
    ASSERT_TRUE(w.close());

    // 8 tiles (4x2 mesh): the four tenants replay in four columns, so
    // --shards=4 records from four domains — into the same bytes.
    TraceReplayConfig cfg;
    cfg.path = src.path();
    auto replayRecording = [&cfg](const std::string &path,
                                  unsigned shards) {
        TraceWriter recording;
        EXPECT_TRUE(recording.open(path, {.timestamps = true}));
        SystemConfig sys = tinySystem(8);
        sys.shards = shards;
        sys.accessTracer = recordAccesses(recording);
        const TraceReplayResult res = runTraceReplay(cfg, sys);
        EXPECT_TRUE(recording.close()) << recording.error();
        return res;
    };
    const TraceReplayResult first = replayRecording(rec.path(), 1);
    ASSERT_TRUE(first.ok) << first.error;
    const TraceReplayResult first4 = replayRecording(rec4.path(), 4);
    ASSERT_TRUE(first4.ok) << first4.error;
    EXPECT_EQ(readAll(rec4.path()), readAll(rec.path()));

    // The recorded (normalized) trace is itself a valid input: its
    // record count matches the replayed line ops, and replaying it
    // works end to end.
    std::uint64_t recorded = 0;
    {
        TraceReader check;
        ASSERT_TRUE(check.open(rec.path())) << check.error();
        EXPECT_TRUE(check.hasTimestamps());
        recorded = check.recordCount();
        EXPECT_GE(recorded, first.records);
    }

    TraceReplayConfig cfg2;
    cfg2.path = rec.path();
    const TraceReplayResult second = runTraceReplay(cfg2, tinySystem(8));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.records, recorded);
}

TEST(TraceReplay, FoldsPhantomSpaceAddressesIntoRealSpace)
{
    // Pin captures carry 47-bit user-space addresses; anything at or
    // above the täkō phantom base (2^46) must fold into the real
    // address space instead of panicking on an unregistered phantom.
    ScratchFile f("high.takotrace");
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 16; ++i) {
        TraceRecord r;
        r.addr = 0x7f00'0000'1000ull + static_cast<Addr>(i) * 64;
        r.op = (i & 1) ? TraceOp::Store : TraceOp::Load;
        r.tenant = static_cast<std::uint32_t>(i % 3);
        recs.push_back(r);
    }
    writeTrace(f.path(), recs, false);

    TraceReplayConfig cfg;
    cfg.path = f.path();
    const TraceReplayResult res = runTraceReplay(cfg, tinySystem(4));
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.records, 16u);
}

TEST(TraceReplay, MissingFileFailsWithError)
{
    TraceReplayConfig cfg;
    cfg.path = ::testing::TempDir() + "tako_no_such_file.takotrace";
    const TraceReplayResult res = runTraceReplay(cfg, tinySystem(2));
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
}
