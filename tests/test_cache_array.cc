/**
 * @file
 * Unit tests for tag arrays and replacement policies, including the two
 * täkō-specific trrîp behaviors: distant insertion for engine fills and
 * the morph-reserve victim rule.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "sim/random.hh"

using namespace tako;

namespace
{

Addr
lineInSet(const CacheArray &c, unsigned set, unsigned k)
{
    // k-th distinct line mapping to `set`.
    return (static_cast<Addr>(k) * c.numSets() + set) * lineBytes;
}

} // namespace

TEST(CacheArray, GeometryAndLookup)
{
    CacheArray c(8 * 1024, 4, ReplPolicy::Lru);
    EXPECT_EQ(c.numWays(), 4u);
    EXPECT_EQ(c.numSets(), 32u);
    EXPECT_EQ(c.sizeBytes(), 8u * 1024);

    const Addr a = lineInSet(c, 3, 0);
    EXPECT_EQ(c.lookup(a), nullptr);
    CacheWay *v = c.findVictim(a, false);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->valid);
    c.fill(*v, a, false, 0, false);
    ASSERT_NE(c.lookup(a), nullptr);
    EXPECT_EQ(c.lookup(a)->lineAddr, a);
    // Different set: still absent.
    EXPECT_EQ(c.lookup(lineInSet(c, 4, 0)), nullptr);
}

TEST(CacheArray, LruEvictsLeastRecent)
{
    CacheArray c(4 * lineBytes, 4, ReplPolicy::Lru); // 1 set, 4 ways
    for (unsigned k = 0; k < 4; ++k) {
        CacheWay *v = c.findVictim(lineInSet(c, 0, k), false);
        c.fill(*v, lineInSet(c, 0, k), false, 0, false);
    }
    // Touch lines 0..2 so line 3 is LRU.
    for (unsigned k = 0; k < 3; ++k)
        c.touch(*c.lookup(lineInSet(c, 0, k)), false);
    CacheWay *v = c.findVictim(lineInSet(c, 0, 9), false);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->lineAddr, lineInSet(c, 0, 3));
}

TEST(CacheArray, SrripHitPromotion)
{
    CacheArray c(4 * lineBytes, 4, ReplPolicy::Srrip);
    for (unsigned k = 0; k < 4; ++k) {
        CacheWay *v = c.findVictim(lineInSet(c, 0, k), false);
        c.fill(*v, lineInSet(c, 0, k), false, 0, false);
    }
    // Promote line 0; it must survive the next eviction.
    c.touch(*c.lookup(lineInSet(c, 0, 0)), false);
    CacheWay *v = c.findVictim(lineInSet(c, 0, 9), false);
    ASSERT_NE(v, nullptr);
    EXPECT_NE(v->lineAddr, lineInSet(c, 0, 0));
}

TEST(CacheArray, TrripEngineLinesLoseToCoreReusedLines)
{
    CacheArray c(4 * lineBytes, 4, ReplPolicy::Trrip);
    // Three core fills, one engine fill.
    for (unsigned k = 0; k < 3; ++k) {
        CacheWay *v = c.findVictim(lineInSet(c, 0, k), false);
        c.fill(*v, lineInSet(c, 0, k), false, 0, false);
    }
    CacheWay *v = c.findVictim(lineInSet(c, 0, 3), false);
    c.fill(*v, lineInSet(c, 0, 3), false, 0, true); // engine fill
    // Core lines get reused (promote to rrpv 0); engine touches keep the
    // engine line at long priority, so it is the victim.
    for (unsigned k = 0; k < 3; ++k)
        c.touch(*c.lookup(lineInSet(c, 0, k)), false);
    c.touch(*c.lookup(lineInSet(c, 0, 3)), true); // engine re-touch
    CacheWay *victim = c.findVictim(lineInSet(c, 0, 9), false);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->lineAddr, lineInSet(c, 0, 3));
}

TEST(CacheArray, TrripCoreTouchPromotesEngineLine)
{
    CacheArray c(4 * lineBytes, 4, ReplPolicy::Trrip);
    for (unsigned k = 0; k < 3; ++k) {
        CacheWay *v = c.findVictim(lineInSet(c, 0, k), false);
        c.fill(*v, lineInSet(c, 0, k), false, 0, false);
    }
    CacheWay *v = c.findVictim(lineInSet(c, 0, 3), false);
    c.fill(*v, lineInSet(c, 0, 3), false, 0, true);
    c.demote(*c.lookup(lineInSet(c, 0, 3))); // use-once hint
    // A core touch promotes the line out of distant priority.
    c.touch(*c.lookup(lineInSet(c, 0, 3)), false);
    CacheWay *victim = c.findVictim(lineInSet(c, 0, 9), false);
    ASSERT_NE(victim, nullptr);
    EXPECT_NE(victim->lineAddr, lineInSet(c, 0, 3));
}

TEST(CacheArray, DemoteIsPolicyAware)
{
    CacheArray trrip(4 * lineBytes, 4, ReplPolicy::Trrip);
    CacheWay *v = trrip.findVictim(lineInSet(trrip, 0, 0), false);
    trrip.fill(*v, lineInSet(trrip, 0, 0), false, 0, false);
    trrip.demote(*v);
    EXPECT_EQ(v->rrpv, CacheArray::rrpvMax);

    CacheArray srrip(4 * lineBytes, 4, ReplPolicy::Srrip);
    CacheWay *w = srrip.findVictim(lineInSet(srrip, 0, 0), false);
    srrip.fill(*w, lineInSet(srrip, 0, 0), false, 0, false);
    const auto before = w->rrpv;
    srrip.demote(*w); // SRRIP ignores the hint (ablation baseline)
    EXPECT_EQ(w->rrpv, before);
}

TEST(CacheArray, TrripMorphReserveRule)
{
    CacheArray c(4 * lineBytes, 4, ReplPolicy::Trrip);
    // Fill 3 morph lines + 1 non-morph line.
    for (unsigned k = 0; k < 3; ++k) {
        CacheWay *v = c.findVictim(lineInSet(c, 0, k), true);
        c.fill(*v, lineInSet(c, 0, k), true, 1, false);
    }
    const Addr non_morph = lineInSet(c, 0, 3);
    CacheWay *v = c.findVictim(non_morph, false);
    c.fill(*v, non_morph, false, 0, false);

    // Inserting another morph line must never evict the last non-morph
    // line, regardless of RRPV ordering.
    for (int trial = 0; trial < 8; ++trial) {
        CacheWay *victim = c.findVictim(lineInSet(c, 0, 10 + trial), true);
        ASSERT_NE(victim, nullptr);
        EXPECT_NE(victim->lineAddr, non_morph) << "trial " << trial;
        c.fill(*victim, lineInSet(c, 0, 10 + trial), true, 1, false);
    }
    // A non-morph insertion may evict anything, including `non_morph`.
    CacheWay *victim = c.findVictim(lineInSet(c, 0, 50), false);
    ASSERT_NE(victim, nullptr);
}

TEST(CacheArray, VictimRespectsCanEvictPredicate)
{
    CacheArray c(4 * lineBytes, 4, ReplPolicy::Trrip);
    for (unsigned k = 0; k < 4; ++k) {
        CacheWay *v = c.findVictim(lineInSet(c, 0, k), false);
        c.fill(*v, lineInSet(c, 0, k), false, 0, false);
    }
    const Addr locked = lineInSet(c, 0, 1);
    for (int trial = 0; trial < 4; ++trial) {
        CacheWay *victim =
            c.findVictim(lineInSet(c, 0, 20 + trial), false,
                         [&](const CacheWay &w) {
                             return w.lineAddr != locked;
                         });
        ASSERT_NE(victim, nullptr);
        EXPECT_NE(victim->lineAddr, locked);
        c.fill(*victim, lineInSet(c, 0, 20 + trial), false, 0, false);
    }
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    CacheArray c(8 * 1024, 8, ReplPolicy::Srrip);
    for (unsigned k = 0; k < 5; ++k) {
        const Addr a = lineInSet(c, k, k);
        CacheWay *v = c.findVictim(a, false);
        c.fill(*v, a, false, 0, false);
    }
    unsigned count = 0;
    c.forEachValid([&](CacheWay &) { ++count; });
    EXPECT_EQ(count, 5u);
}

TEST(BackingStore, ReadWriteWordsAndLines)
{
    BackingStore st;
    EXPECT_EQ(st.read64(0x1000), 0u);
    st.write64(0x1000, 42);
    EXPECT_EQ(st.read64(0x1000), 42u);
    EXPECT_EQ(st.fetchAdd64(0x1000, 8), 42u);
    EXPECT_EQ(st.read64(0x1000), 50u);
    EXPECT_EQ(st.swap64(0x1000, 7), 50u);
    EXPECT_EQ(st.read64(0x1000), 7u);

    LineData line;
    for (unsigned i = 0; i < wordsPerLine; ++i)
        line[i] = i * 100;
    st.writeLine(0x2000, line);
    EXPECT_EQ(st.read64(0x2000 + 3 * 8), 300u);
    LineData rd = st.readLine(0x2000);
    EXPECT_EQ(rd, line);
    st.zeroLine(0x2000);
    EXPECT_EQ(st.readLine(0x2000), LineData{});
}

TEST(BackingStore, SparseAllocation)
{
    BackingStore st;
    st.write64(0, 1);
    st.write64(1ull << 40, 2);
    EXPECT_EQ(st.allocatedPages(), 2u);
    EXPECT_EQ(st.read64(1ull << 30), 0u); // untouched page reads zero
    EXPECT_EQ(st.allocatedPages(), 2u);   // reads don't allocate
}

TEST(BackingStore, ConcurrentFirstTouchKeepsEveryPageAndWord)
{
    // Shard domains commit functional data from several threads. Four
    // threads first-touch the same pages at once, each writing its own
    // words: no page may be created twice and no write lost. Pages span
    // several radix nodes and the phantom half of the address space.
    constexpr unsigned threads = 4;
    constexpr unsigned pages = 96;
    constexpr unsigned words = BackingStore::pageBytes / 8;
    auto pageAddr = [](unsigned p) {
        return Addr(p) * 40961 * BackingStore::pageBytes +
               (p % 3 == 0 ? Addr(1) << 46 : 0);
    };
    auto value = [](unsigned p, unsigned w) {
        return (std::uint64_t(p) << 32) | (w + 1);
    };

    BackingStore st;
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            for (unsigned p = 0; p < pages; ++p) {
                for (unsigned w = t; w < words; w += threads)
                    st.write64(pageAddr(p) + w * 8, value(p, w));
            }
        });
    }
    for (std::thread &w : workers)
        w.join();

    EXPECT_EQ(st.allocatedPages(), pages);
    for (unsigned p = 0; p < pages; ++p) {
        for (unsigned w = 0; w < words; ++w)
            ASSERT_EQ(st.read64(pageAddr(p) + w * 8), value(p, w))
                << "page " << p << " word " << w;
    }
}

TEST(BackingStore, OneWordPerPageAllocatesOneLinePerPage)
{
    // A sparse trace writes a word here and there: each costs one line,
    // not a page.
    constexpr unsigned pages = 300;
    auto wordAddr = [](unsigned p) {
        return Addr(p) * 7 * BackingStore::pageBytes + (p % 64) * lineBytes;
    };
    BackingStore st;
    for (unsigned p = 0; p < pages; ++p)
        st.write64(wordAddr(p), p + 1);
    EXPECT_EQ(st.allocatedPages(), pages);
    EXPECT_EQ(st.allocatedLines(), pages);
    for (unsigned p = 0; p < pages; ++p)
        ASSERT_EQ(st.read64(wordAddr(p)), p + 1u);
    // Another word of an existing line costs nothing more.
    st.write64(8, 9);
    EXPECT_EQ(st.allocatedLines(), pages);
}

TEST(BackingStore, AbsentLinesReadZeroAndAllocateNothing)
{
    BackingStore st;
    st.write64(0x10008, 5); // the page exists; its other lines do not
    LineData ones;
    ones.words.fill(~std::uint64_t{0});
    st.writeLine(0x20000, ones);
    ASSERT_EQ(st.allocatedLines(), 2u);

    for (const Addr line : {Addr(0x10040), Addr(0x10fc0), Addr(0x30000),
                            Addr(1) << 46}) {
        EXPECT_EQ(st.read64(line + 16), 0u);
        EXPECT_EQ(st.readLine(line), LineData{});
        st.zeroLine(line);
    }
    EXPECT_EQ(st.allocatedPages(), 2u);
    EXPECT_EQ(st.allocatedLines(), 2u);

    // Zeroing a present line clears it and leaves it allocated.
    st.zeroLine(0x20000);
    EXPECT_EQ(st.readLine(0x20000), LineData{});
    st.zeroLine(0x10000);
    EXPECT_EQ(st.read64(0x10008), 0u);
    EXPECT_EQ(st.allocatedLines(), 2u);
}

TEST(BackingStore, ConcurrentFirstTouchCreatesEachLineOnce)
{
    // Four threads first-touch the same lines at once, each writing its
    // own words of every line: each line must be created once and no
    // write lost. Lines span several radix nodes, twelve lines of each
    // page (so every page outgrows its sparse table while the threads
    // race), and the phantom half of the address space. Fresh stores,
    // several rounds, so the threads race on many first touches.
    constexpr unsigned threads = 4;
    constexpr unsigned lines = 96;
    constexpr unsigned perPage = 12;
    constexpr unsigned rounds = 20;
    auto lineAddr = [](unsigned l) {
        return Addr(l / perPage) * 40961 * BackingStore::pageBytes +
               (l % perPage) * 5 * lineBytes +
               ((l / perPage) % 3 == 0 ? Addr(1) << 46 : 0);
    };
    auto value = [](unsigned l, unsigned w) {
        return (std::uint64_t(l) << 32) | (w + 1);
    };

    for (unsigned round = 0; round < rounds; ++round) {
        BackingStore st;
        std::atomic<unsigned> ready{0};
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < threads) {
                }
                for (unsigned l = 0; l < lines; ++l) {
                    for (unsigned w = t; w < wordsPerLine; w += threads)
                        st.write64(lineAddr(l) + w * 8, value(l, w));
                }
            });
        }
        for (std::thread &w : workers)
            w.join();

        ASSERT_EQ(st.allocatedLines(), lines) << "round " << round;
        ASSERT_EQ(st.allocatedPages(), lines / perPage)
            << "round " << round;
        for (unsigned l = 0; l < lines; ++l) {
            for (unsigned w = 0; w < wordsPerLine; ++w)
                ASSERT_EQ(st.read64(lineAddr(l) + w * 8), value(l, w))
                    << "round " << round << " line " << l << " word " << w;
        }
    }
}

TEST(BackingStore, PageWrittenLineByLineReadsBackAcrossPromotion)
{
    // A page keeps its first seven lines in a sparse table; the eighth
    // promotes it to a full line table. Write every line of one page in
    // a seeded shuffled order and read the whole page after each write.
    constexpr unsigned lines = BackingStore::pageBytes / lineBytes;
    constexpr Addr page = 0x5000;
    auto wordAddr = [](unsigned l) {
        return page + l * lineBytes + (l % wordsPerLine) * 8;
    };
    auto value = [](unsigned l) { return std::uint64_t{0x100} + l; };

    std::array<unsigned, lines> order;
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(28);
    for (unsigned i = lines - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);

    BackingStore st;
    std::array<bool, lines> written{};
    for (unsigned n = 0; n < lines; ++n) {
        st.write64(wordAddr(order[n]), value(order[n]));
        written[order[n]] = true;
        ASSERT_EQ(st.allocatedLines(), n + 1) << "after write " << n;
        ASSERT_EQ(st.allocatedPages(), 1u) << "after write " << n;
        for (unsigned l = 0; l < lines; ++l) {
            LineData expect;
            if (written[l])
                expect[l % wordsPerLine] = value(l);
            ASSERT_EQ(st.read64(wordAddr(l)), expect[l % wordsPerLine])
                << "after write " << n << ", line " << l;
            ASSERT_EQ(st.readLine(page + l * lineBytes), expect)
                << "after write " << n << ", line " << l;
        }
    }
    // Rewriting present lines allocates nothing.
    for (unsigned l = 0; l < lines; ++l)
        st.write64(wordAddr(l), value(l) + 1);
    EXPECT_EQ(st.allocatedLines(), lines);
    EXPECT_EQ(st.read64(wordAddr(order[0])), value(order[0]) + 1);
}

TEST(BackingStore, AddressOutsidePageTableDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BackingStore st;
    const Addr beyond = Addr(1) << BackingStore::addrBits;
    st.write64(beyond - 8, 1); // the last word is inside
    EXPECT_EQ(st.read64(beyond - 8), 1u);
    EXPECT_DEATH(st.write64(beyond, 1), "outside the 48-bit page table");
    EXPECT_DEATH(st.read64(beyond | 0x1000), "0x1000000001000");
}
