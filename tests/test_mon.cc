/**
 * @file
 * takomon tests: writer/reader codec round-trips, loud failure on every
 * corruption class, TimeSeriesSink sampling and heartbeat determinism,
 * and the System-level contracts — telemetry cannot perturb the model,
 * takomon files are byte-identical across shard counts, the shard.*
 * observability counters are bit-identical at any worker thread count,
 * and a third observer shares the observer list with takomon's two.
 *
 * Labeled `sanfast`: the reader mmaps files and the sharded profile
 * counters are written from real worker threads, so ASan/TSan coverage
 * is the point.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mon/format.hh"
#include "mon/reader.hh"
#include "mon/sink.hh"
#include "mon/writer.hh"
#include "sim/shard.hh"
#include "system/system.hh"
#include "workloads/decompress.hh"

using namespace tako;
using namespace tako::mon;

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

std::uint32_t
load32(const std::vector<std::uint8_t> &b, std::size_t off)
{
    return static_cast<std::uint32_t>(b[off]) |
           static_cast<std::uint32_t>(b[off + 1]) << 8 |
           static_cast<std::uint32_t>(b[off + 2]) << 16 |
           static_cast<std::uint32_t>(b[off + 3]) << 24;
}

/** Deterministic two-series sample set: one integral-valued column
 *  (large magnitudes, both directions) and one fractional column. */
std::vector<std::pair<Tick, std::vector<double>>>
sampleRows(std::size_t n)
{
    std::vector<std::pair<Tick, std::vector<double>>> rows;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::int64_t big = 0;
    Tick t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        t += 1 + (x >> 60);
        // Integral column swings by up to ~2^52 in both directions.
        big += static_cast<std::int64_t>(x >> 12) -
               static_cast<std::int64_t>(1ull << 51);
        const double frac = static_cast<double>(x >> 32) / 3.0;
        rows.push_back({t, {static_cast<double>(big), frac}});
    }
    return rows;
}

void
writeMon(const std::string &path,
         const std::vector<std::pair<Tick, std::vector<double>>> &rows,
         std::uint32_t chunkSamples = 64)
{
    MonWriter w;
    MonWriter::Options opt;
    opt.chunkSamples = chunkSamples;
    std::vector<SeriesDesc> series{
        {"a.ints", SeriesKind::Counter},
        {"b.fracs", SeriesKind::HistSum},
    };
    ASSERT_TRUE(w.open(path, 500, std::move(series), opt)) << w.error();
    for (const auto &[tick, vals] : rows)
        w.addSample(tick, vals);
    ASSERT_TRUE(w.close()) << w.error();
}

/**
 * Open @p path and drain it, asserting the reader fails loudly with
 * @p expect somewhere in the error. Chunk-payload problems only surface
 * once the chunk is entered, so a successful open must be followed by
 * next() returning false *with* an error, never a clean EOF.
 */
void
expectLoudFailure(const std::string &path, const std::string &expect)
{
    MonReader r;
    if (r.open(path)) {
        Tick t;
        std::vector<double> vals;
        while (r.next(t, vals)) {
        }
    }
    EXPECT_FALSE(r.error().empty()) << "silent success for " << expect;
    EXPECT_NE(r.error().find(expect), std::string::npos) << r.error();
}

} // namespace

// ---- codec round-trip --------------------------------------------------

TEST(MonCodec, RoundTripsIntegersAndDoublesAcrossChunks)
{
    ScratchFile f("roundtrip.takomon");
    const auto rows = sampleRows(1000); // ~16 chunks of 64
    writeMon(f.path(), rows);

    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_EQ(r.interval(), Tick{500});
    ASSERT_EQ(r.series().size(), 2u);
    EXPECT_EQ(r.series()[0].name, "a.ints");
    EXPECT_EQ(r.series()[0].kind, SeriesKind::Counter);
    EXPECT_EQ(r.series()[1].name, "b.fracs");
    EXPECT_EQ(r.series()[1].kind, SeriesKind::HistSum);
    EXPECT_EQ(r.sampleCount(), rows.size());

    Tick t;
    std::vector<double> vals;
    for (const auto &[wantTick, wantVals] : rows) {
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, wantTick);
        ASSERT_EQ(vals.size(), 2u);
        // Bit-exact, not approximately equal: the integral column
        // round-trips through wrapping int64 deltas, the fractional one
        // through raw IEEE-754 bytes.
        EXPECT_EQ(vals[0], wantVals[0]);
        EXPECT_EQ(vals[1], wantVals[1]);
    }
    EXPECT_FALSE(r.next(t, vals));
    EXPECT_TRUE(r.error().empty()) << r.error();

    r.rewind();
    ASSERT_TRUE(r.next(t, vals)) << r.error();
    EXPECT_EQ(t, rows[0].first);
    EXPECT_EQ(vals[0], rows[0].second[0]);
}

TEST(MonCodec, EmptyFileRoundTrips)
{
    ScratchFile f("empty.takomon");
    MonWriter w;
    ASSERT_TRUE(
        w.open(f.path(), 100, {{"only", SeriesKind::Counter}}));
    ASSERT_TRUE(w.close()) << w.error();

    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_EQ(r.sampleCount(), 0u);
    Tick t;
    std::vector<double> vals;
    EXPECT_FALSE(r.next(t, vals));
    EXPECT_TRUE(r.error().empty()) << r.error();
}

// ---- corruption classes ------------------------------------------------

TEST(MonCorruption, EveryClassFailsLoudly)
{
    ScratchFile f("corrupt.takomon");
    const auto rows = sampleRows(100);
    writeMon(f.path(), rows);
    const std::vector<std::uint8_t> good = readAll(f.path());
    ASSERT_GT(good.size(), monFileHeaderBytes + 4u);
    const std::uint32_t dirBytes = load32(good, 28);
    const std::size_t chunk0 = monFileHeaderBytes + dirBytes + 4;
    ASSERT_LT(chunk0 + monChunkHeaderBytes, good.size());

    auto mutate = [&](const char *what,
                      const std::function<void(
                          std::vector<std::uint8_t> &)> &fn,
                      const std::string &expect) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> bad = good;
        fn(bad);
        writeAll(f.path(), bad);
        expectLoudFailure(f.path(), expect);
    };

    mutate("short file",
           [](auto &b) { b.resize(monFileHeaderBytes - 5); },
           "shorter than a file header");
    mutate("bad magic", [](auto &b) { b[0] ^= 0xff; }, "bad magic");
    mutate("future version", [](auto &b) { b[8] = 9; },
           "format version 9");
    mutate("reserved flags", [](auto &b) { b[12] = 1; },
           "unknown flag bits");
    mutate("zero interval",
           [](auto &b) { std::fill(b.begin() + 16, b.begin() + 24, 0); },
           "zero sample interval");
    mutate("huge series count",
           [](auto &b) { std::fill(b.begin() + 24, b.begin() + 28, 0xff); },
           "directory ends at series 2 of 4294967295");
    mutate("directory truncated",
           [&](auto &b) { b.resize(monFileHeaderBytes + 2); },
           "truncated in the series directory");
    mutate("directory bit flip",
           [](auto &b) { b[monFileHeaderBytes + 1] ^= 0x40; },
           "directory CRC mismatch");
    mutate("sample count mismatch",
           [](auto &b) { b[32] ^= 1; },
           "samples, chunks hold");
    mutate("unclosed writer",
           [](auto &b) {
               std::fill(b.begin() + 32, b.begin() + 40, 0xff);
           },
           "(unclosed writer?)");
    mutate("chunk bad magic", [&](auto &b) { b[chunk0] ^= 0xff; },
           "bad magic");
    mutate("chunk header truncated",
           [&](auto &b) { b.resize(chunk0 + monChunkHeaderBytes - 3); },
           "truncated at chunk");
    mutate("chunk payload truncated",
           [&](auto &b) { b.resize(b.size() - 7); },
           "truncated");
    mutate("chunk payload bit flip",
           [&](auto &b) { b[chunk0 + monChunkHeaderBytes + 2] ^= 0x10; },
           "CRC mismatch");
    mutate("trailing garbage",
           [](auto &b) { b.insert(b.end(), {1, 2, 3}); },
           "truncated at chunk");
}

TEST(MonCorruption, UnclosedWriterFileIsRejected)
{
    ScratchFile f("abandoned.takomon");
    {
        MonWriter w;
        ASSERT_TRUE(
            w.open(f.path(), 10, {{"c", SeriesKind::Counter}}));
        for (Tick t = 10; t <= 1000; t += 10)
            w.addSample(t, {static_cast<double>(t)});
        // No close(): the destructor abandons the file before its
        // first chunk, leaving the ~0 sampleCount sentinel in place.
    }
    expectLoudFailure(f.path(), "(unclosed writer?)");
}

TEST(MonCorruption, HandcraftedPayloadDefectsAreCaught)
{
    // Hand-build a one-series file so the payload bytes are under full
    // control (writer output is always well-formed). Layout: header,
    // directory ("a", Counter) + CRC, one chunk of two samples.
    auto build = [](const std::vector<std::uint8_t> &payload,
                    std::uint32_t samples) {
        std::vector<std::uint8_t> b;
        auto u32 = [&b](std::uint32_t v) {
            for (int i = 0; i < 4; ++i)
                b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        };
        auto u64 = [&b](std::uint64_t v) {
            for (int i = 0; i < 8; ++i)
                b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        };
        for (const char ch : monMagic)
            b.push_back(static_cast<std::uint8_t>(ch));
        u32(monVersion);
        u32(0);        // flags
        u64(5);        // interval
        u32(1);        // seriesCount
        u32(3);        // dirBytes: kind + nameLen + 'a'
        u64(samples);  // sampleCount
        const std::size_t dir = b.size();
        b.push_back(0); // kind = Counter
        b.push_back(1); // nameLen
        b.push_back('a');
        u32(crc32(b.data() + dir, 3));
        u32(monChunkMagic);
        u32(samples);
        u32(static_cast<std::uint32_t>(payload.size()));
        u32(crc32(payload.data(), payload.size()));
        u64(0); // firstIndex
        b.insert(b.end(), payload.begin(), payload.end());
        return b;
    };

    ScratchFile f("handcrafted.takomon");

    // Sanity: a well-formed hand-built file decodes.
    writeAll(f.path(), build({5, 3, colIntDeltas, 2, 4}, 2));
    {
        MonReader r;
        ASSERT_TRUE(r.open(f.path())) << r.error();
        Tick t;
        std::vector<double> vals;
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, Tick{5});
        EXPECT_EQ(vals[0], 1.0); // zigzag(2) = +1
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, Tick{8});
        EXPECT_EQ(vals[0], 3.0); // +zigzag(4) = +2
    }

    // Unknown column encoding tag.
    writeAll(f.path(), build({5, 3, 9, 2, 4}, 2));
    expectLoudFailure(f.path(), "unknown column encoding");

    // Zero tick delta within a chunk = repeated sample tick.
    writeAll(f.path(), build({5, 0, colIntDeltas, 2, 4}, 2));
    expectLoudFailure(f.path(), "non-increasing sample tick");

    // Payload bytes left over after the last column.
    writeAll(f.path(), build({5, 3, colIntDeltas, 2, 4, 0, 0}, 2));
    expectLoudFailure(f.path(), "payload bytes left");

    // A sample count (header and chunk alike) the payload cannot hold.
    writeAll(f.path(), build({5, 3, colIntDeltas, 2, 4}, 0xffffffffu));
    expectLoudFailure(f.path(), "samples cannot fit in 5 payload bytes");
}

// ---- TimeSeriesSink ----------------------------------------------------

TEST(TimeSeriesSink, TakomonFileMatchesInMemorySeries)
{
    ScratchFile f("sink.takomon");
    EventQueue eq;
    StatsRegistry stats;
    Counter &c = stats.counter("c");
    Histogram &h = stats.histogram("lat");
    stats.counter("host.fake"); // must be skipped by namespace

    TimeSeriesSink sink({.sampleEvery = 10, .path = f.path()});
    sink.attach({&eq}, stats);
    installWatermarks({&sink}, {&eq});

    eq.schedule(7, [&] {
        c += 1;
        h.sample(3);
    });
    eq.schedule(25, [&] {
        c += 2;
        h.sample(9);
    });
    eq.schedule(35, [] {});
    eq.run();
    ASSERT_TRUE(sink.finish()) << sink.error();

    // Derived histogram series ride along with the counter.
    ASSERT_EQ(sink.seriesDescs().size(), 4u);
    EXPECT_EQ(sink.seriesDescs()[0].name, "c");
    EXPECT_EQ(sink.seriesDescs()[1].name, "lat.count");
    EXPECT_EQ(sink.seriesDescs()[2].name, "lat.sum");
    EXPECT_EQ(sink.seriesDescs()[3].name, "lat.max");

    const StatsTimeSeries &ts = stats.timeSeries();
    ASSERT_EQ(ts.numSamples(), 3u);
    EXPECT_EQ(ts.ticks, (std::vector<Tick>{10, 20, 30}));

    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_EQ(r.sampleCount(), ts.numSamples());
    ASSERT_EQ(r.series().size(), ts.names.size());
    Tick t;
    std::vector<double> vals;
    for (std::size_t i = 0; i < ts.numSamples(); ++i) {
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, ts.ticks[i]);
        EXPECT_EQ(vals, ts.samples[i]);
    }
    EXPECT_FALSE(r.next(t, vals));
    EXPECT_TRUE(r.error().empty()) << r.error();

    // Spot-check semantics: a sample at tick T sees everything strictly
    // before T; the histogram contributes count/sum/max columns.
    EXPECT_EQ(ts.samples[0], (std::vector<double>{1, 1, 3, 3}));
    EXPECT_EQ(ts.samples[2], (std::vector<double>{3, 2, 12, 9}));
}

TEST(Heartbeat, FiresAtDeterministicTicks)
{
    // Beats ride domain 0's clock on a System's observer list; a
    // frontend that knows its work fraction provides it to the System.
    for (const bool provided : {false, true}) {
        std::vector<Tick> beatTicks;
        std::vector<std::uint64_t> beatEvents;
        Heartbeat beat(10, [&](const ProgressBeat &b) {
            beatTicks.push_back(b.tick);
            beatEvents.push_back(b.events);
            if (provided)
                EXPECT_EQ(b.fractionDone, 0.25);
            else
                EXPECT_LT(b.fractionDone, 0); // unknown unless provided
        });
        SystemConfig cfg = SystemConfig::forCores(4);
        cfg.observers = {&beat};
        System sys(cfg);
        if (provided)
            sys.setFractionDone([] { return 0.25; });
        for (Tick t = 1; t <= 34; ++t)
            sys.eq().schedule(t, [] {});
        sys.run();

        // Beat ticks are simulation state; event counts at those ticks
        // are too (events strictly before the boundary).
        EXPECT_EQ(beatTicks, (std::vector<Tick>{10, 20, 30}));
        EXPECT_EQ(beatEvents, (std::vector<std::uint64_t>{9, 19, 29}));
        // Beats never enter the sampled series.
        EXPECT_FALSE(sys.stats().timeSeries().enabled());
    }
}

// ---- shard.* profile determinism --------------------------------------

namespace
{

/**
 * Four-domain chain model on the raw executor: each domain runs a
 * self-rescheduling event chain of different lengths (load imbalance by
 * construction), mailing work to the next domain every third hop. All
 * profile fields must be a pure function of this structure, never of
 * the worker thread count. Domain d's events execute at stream d + 1 of
 * one shared key table, as in a decomposed System.
 */
struct ChainModel
{
    static constexpr unsigned kDomains = 4;
    static constexpr Tick kQuantum = 3;

    std::array<std::unique_ptr<EventQueue>, kDomains> queues;
    StreamKeySource keys{kDomains + 1};
    std::unique_ptr<ShardedExecutor> exec;

    explicit ChainModel(unsigned threads)
    {
        std::vector<EventQueue *> domains;
        for (auto &q : queues) {
            q = std::make_unique<EventQueue>();
            q->setStreamKeys(keys);
            domains.push_back(q.get());
        }
        exec = std::make_unique<ShardedExecutor>(domains, kQuantum,
                                                 threads);
    }

    void
    hop(unsigned d, unsigned left)
    {
        if (left == 0)
            return;
        if (left % 3 == 0) {
            const unsigned nxt = (d + 1) % kDomains;
            exec->sendKeyed(d, nxt, queues[d]->now() + kQuantum,
                            keys.next(d + 1), nxt + 1,
                            [this, nxt, left] { hop(nxt, left - 1); });
            return;
        }
        queues[d]->schedule(1 + left % 5,
                            [this, d, left] { hop(d, left - 1); });
    }
};

struct ProfileSnap
{
    std::vector<ShardedExecutor::DomainProfile> profiles;
    std::vector<std::uint64_t> sent;
    std::uint64_t rounds = 0;
    std::uint64_t soloRounds = 0;
    std::uint64_t cross = 0;

    bool
    operator==(const ProfileSnap &o) const
    {
        if (rounds != o.rounds || soloRounds != o.soloRounds ||
            cross != o.cross || sent != o.sent ||
            profiles.size() != o.profiles.size())
            return false;
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            const auto &a = profiles[i];
            const auto &b = o.profiles[i];
            if (a.executed != b.executed ||
                a.maxRoundEvents != b.maxRoundEvents ||
                a.idleRounds != b.idleRounds ||
                a.received != b.received ||
                a.maxInboxDepth != b.maxInboxDepth)
                return false;
        }
        return true;
    }
};

ProfileSnap
runChains(unsigned threads)
{
    ChainModel m(threads);
    for (unsigned d = 0; d < ChainModel::kDomains; ++d) {
        const unsigned len = 20 + d * 17; // deliberately unbalanced
        m.queues[d]->scheduleKeyed(
            d + 1, [&m, d, len] { m.hop(d, len); }, m.keys.next(0), d + 1);
    }
    m.exec->run();

    ProfileSnap s;
    s.profiles = m.exec->domainProfiles();
    for (unsigned d = 0; d < ChainModel::kDomains; ++d)
        s.sent.push_back(m.exec->eventsSent(d));
    s.rounds = m.exec->rounds();
    s.soloRounds = m.exec->soloRounds();
    s.cross = m.exec->crossShardEvents();
    return s;
}

} // namespace

TEST(ShardProfile, BitIdenticalAtEveryThreadCount)
{
    const ProfileSnap ref = runChains(1);
    // The model did real work and the profile saw it.
    std::uint64_t executed = 0, received = 0;
    for (const auto &p : ref.profiles)
        executed += p.executed, received += p.received;
    EXPECT_GT(executed, 0u);
    EXPECT_GT(received, 0u);
    EXPECT_EQ(received, ref.cross);

    for (const unsigned threads : {2u, 4u}) {
        const ProfileSnap got = runChains(threads);
        EXPECT_TRUE(got == ref) << "threads=" << threads;
    }
}

// ---- System-level contracts -------------------------------------------

namespace
{

struct MonRunResult
{
    std::map<std::string, double> counters; ///< all but host.*
    Tick cycles = 0;
    double energy = 0;
    double checksum = 0;
    std::vector<std::uint8_t> monBytes;
};

MonRunResult
runDecompressMon(unsigned shards, const std::string &monPath,
                 Tick sampleEvery)
{
    SystemConfig cfg = SystemConfig::forCores(16);
    cfg.mem.l1Size = 2 * 1024;
    cfg.mem.l2Size = 8 * 1024;
    cfg.mem.l3BankSize = 32 * 1024;
    cfg.shards = shards;
    std::optional<TimeSeriesSink> sink;
    if (sampleEvery > 0)
        cfg.observers = {&sink.emplace(
            TimeSeriesSink::Options{sampleEvery, {}, monPath})};
    DecompressConfig dc;
    dc.numValues = 2 * 1024;
    dc.numIndices = 4 * 1024;
    const RunMetrics m = runDecompress(DecompressVariant::Tako, dc, cfg);

    MonRunResult r;
    for (const auto &[name, c] : m.stats->counters())
        if (name.rfind("host.", 0) != 0)
            r.counters.emplace(name, c.value());
    r.cycles = m.cycles;
    r.energy = m.energy;
    r.checksum = m.extra.at("checksum");
    if (!monPath.empty())
        r.monBytes = readAll(monPath);
    return r;
}

} // namespace

TEST(MonSystem, TelemetryChangesNoModelMetric)
{
    ScratchFile f("telemetry.takomon");
    const MonRunResult off = runDecompressMon(1, "", 0);
    const MonRunResult on = runDecompressMon(1, f.path(), 500);

    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.energy, off.energy);
    EXPECT_EQ(on.checksum, off.checksum);
    ASSERT_EQ(on.counters.size(), off.counters.size());
    for (const auto &[name, value] : off.counters) {
        const auto it = on.counters.find(name);
        ASSERT_NE(it, on.counters.end()) << name;
        EXPECT_EQ(it->second, value) << name;
    }

    // The run produced a valid, non-empty takomon file.
    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_GT(r.sampleCount(), 0u);
    EXPECT_EQ(r.interval(), Tick{500});
}

TEST(MonSystem, TakomonBytesIdenticalAcrossShardCounts)
{
    ScratchFile f1("s1.takomon"), f2("s2.takomon"), f4("s4.takomon");
    const MonRunResult s1 = runDecompressMon(1, f1.path(), 500);
    const MonRunResult s2 = runDecompressMon(2, f2.path(), 500);
    const MonRunResult s4 = runDecompressMon(4, f4.path(), 500);

    ASSERT_FALSE(s1.monBytes.empty());
    EXPECT_EQ(s1.monBytes, s2.monBytes);
    EXPECT_EQ(s1.monBytes, s4.monBytes);

    // The post-run shard.* namespace describes each topology.
    EXPECT_EQ(s1.counters.at("shard.domains"), 1.0);
    EXPECT_EQ(s2.counters.at("shard.domains"), 2.0);
    EXPECT_EQ(s4.counters.at("shard.domains"), 4.0);
    EXPECT_GT(s4.counters.at("shard.d0.events"), 0.0);
    EXPECT_GE(s4.counters.at("shard.load_imbalance"), 1.0);
    EXPECT_GT(s4.counters.at("shard.events_mean"), 0.0);
    // events_max is the max over domains, so max/mean >= 1 holds by
    // construction; the checksum ties all three runs to one answer.
    EXPECT_EQ(s2.checksum, s1.checksum);
    EXPECT_EQ(s4.checksum, s1.checksum);
}

// ---- the observer list --------------------------------------------------

namespace
{

/** A third observer beside takomon's two: it reads records and asks for
 *  its own watermark period, logging per domain. */
class FakeObserver : public Observer
{
  public:
    static constexpr Tick kPeriod = 700;

    struct Seen
    {
        Tick tick;
        std::uint64_t key;
        RecordKind kind;
        Addr addr;
        std::int32_t tile;
        bool operator==(const Seen &) const = default;
    };

    void
    attach(System &sys) override
    {
        lanes_ = std::vector<Lane>(sys.domains().queues().size());
    }

    std::uint32_t
    recordKinds() const override
    {
        return recordBit(RecordKind::MemDone) |
               recordBit(RecordKind::DramRead) |
               recordBit(RecordKind::CbRetire);
    }

    void
    record(const Record &r) override
    {
        records.push_back({r.tick, r.key, r.kind, r.addr, r.tile});
    }

    Tick watermark(unsigned d) const override { return lanes_[d].next; }

    Tick
    advance(unsigned d, Tick to) override
    {
        Lane &lane = lanes_[d];
        EXPECT_GE(to, lane.next);
        while (lane.next <= to) {
            lane.boundaries.push_back(lane.next);
            lane.next += kPeriod;
        }
        return lane.next;
    }

    void finish(System &, Tick) override { ++finishes; }

    /** Every boundary some domain's clock crossed, in tick order. */
    std::vector<Tick>
    boundaries() const
    {
        std::vector<Tick> all;
        for (const Lane &lane : lanes_)
            all.insert(all.end(), lane.boundaries.begin(),
                       lane.boundaries.end());
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
        return all;
    }

    std::vector<Seen> records;
    unsigned finishes = 0;

  private:
    /** One domain's state, touched only on its worker. */
    struct alignas(64) Lane
    {
        Tick next = kPeriod;
        std::vector<Tick> boundaries;
    };
    std::vector<Lane> lanes_;
};

} // namespace

TEST(ObserverList, ThirdObserverSeesOneStreamAtEveryShardCount)
{
    // One list, three watermark observers at three periods (takomon
    // sampling, heartbeats, and a fake) plus the fake's record kinds:
    // the fake sees the same records and the same boundary ticks at
    // every shard count, and takomon's rows do not move.
    struct Result
    {
        std::vector<FakeObserver::Seen> records;
        std::vector<Tick> boundaries;
        std::vector<std::vector<double>> samples;
        std::vector<Tick> beats;
        Tick cycles = 0;
    };
    auto runAt = [](unsigned shards) {
        Result r;
        FakeObserver fake;
        TimeSeriesSink sink({.sampleEvery = 500, .patterns = {"l1.*"}});
        Heartbeat beat(300, [&r](const ProgressBeat &b) {
            r.beats.push_back(b.tick);
        });
        SystemConfig cfg = SystemConfig::forCores(16);
        cfg.mem.l1Size = 2 * 1024;
        cfg.mem.l2Size = 8 * 1024;
        cfg.mem.l3BankSize = 32 * 1024;
        cfg.shards = shards;
        cfg.observers = {&sink, &fake, &beat};
        DecompressConfig dc;
        dc.numValues = 2 * 1024;
        dc.numIndices = 4 * 1024;
        const RunMetrics m = runDecompress(DecompressVariant::Tako, dc, cfg);
        EXPECT_EQ(fake.finishes, 1u);
        r.records = std::move(fake.records);
        r.boundaries = fake.boundaries();
        r.samples = m.stats->timeSeries().samples;
        r.cycles = m.cycles;
        return r;
    };
    const Result one = runAt(1);
    ASSERT_FALSE(one.records.empty());
    ASSERT_FALSE(one.boundaries.empty());
    ASSERT_FALSE(one.samples.empty());
    ASSERT_FALSE(one.beats.empty());
    // At one domain every boundary up to the last event is crossed.
    EXPECT_EQ(one.boundaries.size(), one.cycles / FakeObserver::kPeriod);
    for (std::size_t i = 0; i < one.boundaries.size(); ++i)
        EXPECT_EQ(one.boundaries[i], (i + 1) * FakeObserver::kPeriod);
    for (const unsigned shards : {3u, 4u}) {
        const Result got = runAt(shards);
        EXPECT_EQ(got.cycles, one.cycles) << "shards=" << shards;
        EXPECT_TRUE(got.records == one.records) << "shards=" << shards;
        EXPECT_EQ(got.boundaries, one.boundaries) << "shards=" << shards;
        EXPECT_EQ(got.samples, one.samples) << "shards=" << shards;
        // Beats ride domain 0's clock, which stops at its own last
        // event, so a sharded run beats a prefix of the ticks.
        ASSERT_LE(got.beats.size(), one.beats.size());
        EXPECT_TRUE(std::equal(got.beats.begin(), got.beats.end(),
                               one.beats.begin()))
            << "shards=" << shards;
    }
}
