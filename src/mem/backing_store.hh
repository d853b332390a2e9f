/**
 * @file
 * Sparse functional memory.
 *
 * tako-sim splits functional state from timing state (see DESIGN.md):
 * caches simulate tags, coherence, and latency, while data values live in
 * BackingStore instances mutated at event-commit times. There are two
 * stores per system: one for real (memory-backed) addresses and one for
 * phantom ranges, whose lines semantically exist only while cached.
 */

#ifndef TAKO_MEM_BACKING_STORE_HH
#define TAKO_MEM_BACKING_STORE_HH

#include <array>
#include <atomic>
#include <cstring>
#include <mutex>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

/** Data contents of one 64B cache line, as eight 64-bit words. */
struct LineData
{
    std::array<std::uint64_t, wordsPerLine> words{};

    std::uint64_t &operator[](std::size_t i) { return words[i]; }
    std::uint64_t operator[](std::size_t i) const { return words[i]; }

    bool
    operator==(const LineData &o) const
    {
        return words == o.words;
    }
};

class BackingStore
{
  public:
    static constexpr std::uint64_t pageBytes = 4096;
    /** The page table covers [0, 2^addrBits). The morph registry's
     *  phantom ranges start at 2^46, so both stores fit. */
    static constexpr unsigned addrBits = 48;

    BackingStore() = default;
    ~BackingStore();

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /** Read the aligned 64-bit word containing @p addr. */
    std::uint64_t
    read64(Addr addr) const
    {
        const Page *page = findPage(addr);
        if (!page)
            return 0;
        return page->words[wordIndex(addr)];
    }

    /** Write the aligned 64-bit word containing @p addr. */
    void
    write64(Addr addr, std::uint64_t value)
    {
        getPage(addr).words[wordIndex(addr)] = value;
    }

    /** Atomic read-modify-write add; returns the previous value. */
    std::uint64_t
    fetchAdd64(Addr addr, std::uint64_t delta)
    {
        std::uint64_t &w = getPage(addr).words[wordIndex(addr)];
        const std::uint64_t old = w;
        w += delta;
        return old;
    }

    /** Atomic swap; returns the previous value. */
    std::uint64_t
    swap64(Addr addr, std::uint64_t value)
    {
        std::uint64_t &w = getPage(addr).words[wordIndex(addr)];
        const std::uint64_t old = w;
        w = value;
        return old;
    }

    /** Copy a full line out. @p addr must be line-aligned. */
    LineData
    readLine(Addr addr) const
    {
        panic_if(lineOffset(addr) != 0, "readLine: unaligned %#llx",
                 (unsigned long long)addr);
        LineData out;
        const Page *page = findPage(addr);
        if (page) {
            std::memcpy(out.words.data(), &page->words[wordIndex(addr)],
                        lineBytes);
        }
        return out;
    }

    /** Copy a full line in. @p addr must be line-aligned. */
    void
    writeLine(Addr addr, const LineData &data)
    {
        panic_if(lineOffset(addr) != 0, "writeLine: unaligned %#llx",
                 (unsigned long long)addr);
        Page &page = getPage(addr);
        std::memcpy(&page.words[wordIndex(addr)], data.words.data(),
                    lineBytes);
    }

    /** Zero a full line. */
    void
    zeroLine(Addr addr)
    {
        writeLine(addr, LineData{});
    }

    /** Number of allocated pages (for tests and footprint checks). */
    std::size_t
    allocatedPages() const
    {
        return pages_.load(std::memory_order_relaxed);
    }

  private:
    struct Page
    {
        std::array<std::uint64_t, pageBytes / 8> words{};
    };

    /**
     * An insert-only three-level radix table over the page number. Shard
     * domains commit functional data from several threads, so:
     *  - lookups are lock-free: three acquire loads, no write;
     *  - nodes and pages are created zeroed under createMu_ and
     *    published with a release store, so a reader that finds a
     *    pointer also sees the zeroed contents behind it;
     *  - nothing is unlinked or freed before destruction, so a pointer
     *    once found never dangles.
     * Word accesses through a found page need no lock either: coherence
     * serializes every same-line access (one M/E owner at a time), and
     * distinct words never alias.
     */
    static constexpr unsigned levelBits = (addrBits - 12) / 3;
    static constexpr std::size_t fanout = std::size_t(1) << levelBits;
    static_assert(pageBytes == std::uint64_t(1) << 12 &&
                  (addrBits - 12) % 3 == 0);

    struct Leaf
    {
        std::array<std::atomic<Page *>, fanout> pages{};
    };

    struct Mid
    {
        std::array<std::atomic<Leaf *>, fanout> leaves{};
    };

    static std::size_t
    wordIndex(Addr addr)
    {
        return (addr % pageBytes) / 8;
    }

    /** Page number of @p addr; panics outside the table's span instead
     *  of aliasing another page. */
    static std::uint64_t
    pageNumber(Addr addr)
    {
        panic_if(addr >> addrBits, "BackingStore: address %#llx is outside "
                 "the %u-bit page table",
                 (unsigned long long)addr, addrBits);
        return addr / pageBytes;
    }

    static std::size_t
    slot(std::uint64_t pn, unsigned level)
    {
        return static_cast<std::size_t>(pn >> (levelBits * level)) &
               (fanout - 1);
    }

    Page *
    findPage(Addr addr) const
    {
        const std::uint64_t pn = pageNumber(addr);
        const Mid *mid = root_[slot(pn, 2)].load(std::memory_order_acquire);
        if (!mid)
            return nullptr;
        const Leaf *leaf =
            mid->leaves[slot(pn, 1)].load(std::memory_order_acquire);
        if (!leaf)
            return nullptr;
        return leaf->pages[slot(pn, 0)].load(std::memory_order_acquire);
    }

    Page &
    getPage(Addr addr)
    {
        if (Page *page = findPage(addr)) [[likely]]
            return *page;
        return createPage(pageNumber(addr));
    }

    /** Find-or-create @p pn's page and the nodes above it. */
    Page &
    createPage(std::uint64_t pn)
    {
        std::lock_guard<std::mutex> g(createMu_);
        Mid *mid = publish(root_[slot(pn, 2)]);
        Leaf *leaf = publish(mid->leaves[slot(pn, 1)]);
        std::atomic<Page *> &cell = leaf->pages[slot(pn, 0)];
        Page *page = cell.load(std::memory_order_relaxed);
        if (!page) {
            page = new Page();
            cell.store(page, std::memory_order_release);
            pages_.fetch_add(1, std::memory_order_relaxed);
        }
        return *page;
    }

    /** @p cell 's node, created and published if absent (createMu_). */
    template <typename Node>
    static Node *
    publish(std::atomic<Node *> &cell)
    {
        Node *node = cell.load(std::memory_order_relaxed);
        if (!node) {
            node = new Node();
            cell.store(node, std::memory_order_release);
        }
        return node;
    }

    std::array<std::atomic<Mid *>, fanout> root_{};
    std::mutex createMu_;
    std::atomic<std::size_t> pages_{0};
};

inline BackingStore::~BackingStore()
{
    for (std::atomic<Mid *> &m : root_) {
        Mid *mid = m.load(std::memory_order_relaxed);
        if (!mid)
            continue;
        for (std::atomic<Leaf *> &l : mid->leaves) {
            Leaf *leaf = l.load(std::memory_order_relaxed);
            if (!leaf)
                continue;
            for (std::atomic<Page *> &p : leaf->pages)
                delete p.load(std::memory_order_relaxed);
            delete leaf;
        }
        delete mid;
    }
}

} // namespace tako

#endif // TAKO_MEM_BACKING_STORE_HH
