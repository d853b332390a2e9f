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
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

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

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /** Read the aligned 64-bit word containing @p addr. */
    std::uint64_t
    read64(Addr addr) const
    {
        const Line *line = findLine(addr);
        return line ? line->words[wordIndex(addr)] : 0;
    }

    /** Write the aligned 64-bit word containing @p addr. */
    void
    write64(Addr addr, std::uint64_t value)
    {
        getLine(addr).words[wordIndex(addr)] = value;
    }

    /** Atomic read-modify-write add; returns the previous value. */
    std::uint64_t
    fetchAdd64(Addr addr, std::uint64_t delta)
    {
        std::uint64_t &w = getLine(addr).words[wordIndex(addr)];
        const std::uint64_t old = w;
        w += delta;
        return old;
    }

    /** Atomic swap; returns the previous value. */
    std::uint64_t
    swap64(Addr addr, std::uint64_t value)
    {
        std::uint64_t &w = getLine(addr).words[wordIndex(addr)];
        const std::uint64_t old = w;
        w = value;
        return old;
    }

    /** Copy a full line out. @p addr must be line-aligned. */
    LineData
    readLine(Addr addr) const
    {
        checkAligned(addr, "readLine");
        LineData out;
        if (const Line *line = findLine(addr))
            out.words = line->words;
        return out;
    }

    /** Copy a full line in. @p addr must be line-aligned. */
    void
    writeLine(Addr addr, const LineData &data)
    {
        checkAligned(addr, "writeLine");
        getLine(addr).words = data.words;
    }

    /** Zero a full line; an absent line already reads zero and stays
     *  absent. @p addr must be line-aligned. */
    void
    zeroLine(Addr addr)
    {
        checkAligned(addr, "zeroLine");
        if (Line *line = findLine(addr))
            line->words = {};
    }

    /** Number of pages with at least one written line (for tests and
     *  footprint checks). */
    std::size_t
    allocatedPages() const
    {
        return pageCount_.load(std::memory_order_relaxed);
    }

    /** Number of written lines (for tests and footprint checks). */
    std::size_t
    allocatedLines() const
    {
        return lineCount_.load(std::memory_order_relaxed);
    }

  private:
    static constexpr std::size_t linesPerPage = pageBytes / lineBytes;

    struct alignas(lineBytes) Line
    {
        std::array<std::uint64_t, wordsPerLine> words{};
    };

    /** A line's slot in its page, kept in the low bits of a `Line *`
     *  (lines are line-aligned, so those bits are free). */
    static constexpr std::uintptr_t slotMask = linesPerPage - 1;
    static_assert(alignof(Line) > slotMask);

    /**
     * A page's first lines: up to seven `Line *` words, each tagged
     * with its slot, and how many are set. Entries are appended below
     * `count` and never change, so a reader scans `count` entries after
     * one acquire load of it. The eighth line promotes the page to a
     * LineTable.
     */
    struct alignas(lineBytes) SparseTable
    {
        static constexpr std::size_t capacity = 7;
        std::array<std::atomic<std::uintptr_t>, capacity> lines{};
        std::atomic<std::size_t> count{0};
    };
    static_assert(sizeof(SparseTable) == lineBytes);

    /** A promoted page's lines; a slot stays null until its line is
     *  written. */
    struct LineTable
    {
        std::array<std::atomic<Line *>, linesPerPage> lines{};
    };

    /**
     * An insert-only three-level radix table over the page number whose
     * leaves point at each page's SparseTable, or at its LineTable once
     * promoted (tagged with denseTag). Shard domains commit functional
     * data from several threads, so:
     *  - lookups are lock-free: three acquire loads down to the page,
     *    then one of a LineTable slot, or one of a SparseTable's count
     *    before a scan of its entries;
     *  - nodes, tables and lines are created zeroed under createMu_
     *    and published with a release store, so a reader that finds a
     *    pointer also sees the contents behind it;
     *  - nothing is unlinked or freed before destruction, so a pointer
     *    once found never dangles: a promoted page's SparseTable keeps
     *    its entries for readers that loaded it before the LineTable.
     * Word accesses through a found line need no lock either: coherence
     * serializes every same-line access (one M/E owner at a time), and
     * distinct words never alias.
     */
    static constexpr unsigned levelBits = (addrBits - 12) / 3;
    static constexpr std::size_t fanout = std::size_t(1) << levelBits;
    static_assert(pageBytes == std::uint64_t(1) << 12 &&
                  (addrBits - 12) % 3 == 0);

    /** Tags a leaf entry that points at a LineTable. */
    static constexpr std::uintptr_t denseTag = 1;

    struct Leaf
    {
        std::array<std::atomic<std::uintptr_t>, fanout> pages{};
    };

    struct Mid
    {
        std::array<std::atomic<Leaf *>, fanout> leaves{};
    };

    /**
     * Zeroed objects handed out @p N to a slab (createMu_ only). Only
     * the store's destructor frees them, so carving never frees.
     */
    template <typename T, std::size_t N>
    class Slabs
    {
      public:
        T *
        carve()
        {
            if (used_ == N) {
                slabs_.push_back(std::make_unique<T[]>(N));
                used_ = 0;
            }
            return &slabs_.back()[used_++];
        }

      private:
        std::vector<std::unique_ptr<T[]>> slabs_;
        std::size_t used_ = N;
    };

    static void
    checkAligned(Addr addr, const char *op)
    {
        panic_if(lineOffset(addr) != 0, "%s: unaligned %#llx", op,
                 (unsigned long long)addr);
    }

    static std::size_t
    wordIndex(Addr addr)
    {
        return lineOffset(addr) / 8;
    }

    static std::size_t
    lineIndex(Addr addr)
    {
        return (addr % pageBytes) / lineBytes;
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

    static SparseTable *
    asSparse(std::uintptr_t page)
    {
        return reinterpret_cast<SparseTable *>(page);
    }

    static LineTable *
    asDense(std::uintptr_t page)
    {
        return reinterpret_cast<LineTable *>(page & ~denseTag);
    }

    /** @p idx 's line among @p table 's entries, or null. */
    static Line *
    findSparse(const SparseTable &table, std::size_t idx)
    {
        const std::size_t n = table.count.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uintptr_t e =
                table.lines[i].load(std::memory_order_relaxed);
            if ((e & slotMask) == idx)
                return reinterpret_cast<Line *>(e & ~slotMask);
        }
        return nullptr;
    }

    Line *
    findLine(Addr addr) const
    {
        const std::uint64_t pn = pageNumber(addr);
        const Mid *mid = root_[slot(pn, 2)].load(std::memory_order_acquire);
        if (!mid)
            return nullptr;
        const Leaf *leaf =
            mid->leaves[slot(pn, 1)].load(std::memory_order_acquire);
        if (!leaf)
            return nullptr;
        const std::uintptr_t page =
            leaf->pages[slot(pn, 0)].load(std::memory_order_acquire);
        const std::size_t idx = lineIndex(addr);
        if (page & denseTag)
            return asDense(page)->lines[idx].load(std::memory_order_acquire);
        return page ? findSparse(*asSparse(page), idx) : nullptr;
    }

    Line &
    getLine(Addr addr)
    {
        if (Line *line = findLine(addr)) [[likely]]
            return *line;
        return createLine(addr);
    }

    /** Find-or-create @p addr 's line and everything above it, all
     *  under one acquisition of createMu_. */
    Line &
    createLine(Addr addr)
    {
        const std::uint64_t pn = pageNumber(addr);
        const std::size_t idx = lineIndex(addr);
        std::lock_guard<std::mutex> g(createMu_);
        Mid *mid = publish(root_[slot(pn, 2)], mids_);
        Leaf *leaf = publish(mid->leaves[slot(pn, 1)], leaves_);
        std::atomic<std::uintptr_t> &cell = leaf->pages[slot(pn, 0)];
        std::uintptr_t page = cell.load(std::memory_order_relaxed);
        if (page & denseTag)
            return *publish(asDense(page)->lines[idx], lines_, &lineCount_);
        if (!page) {
            page = reinterpret_cast<std::uintptr_t>(sparse_.carve());
            cell.store(page, std::memory_order_release);
            pageCount_.fetch_add(1, std::memory_order_relaxed);
        }
        SparseTable &sparse = *asSparse(page);
        if (Line *line = findSparse(sparse, idx))
            return *line;

        Line *line = lines_.carve();
        lineCount_.fetch_add(1, std::memory_order_relaxed);
        const std::size_t n = sparse.count.load(std::memory_order_relaxed);
        if (n < SparseTable::capacity) {
            sparse.lines[n].store(reinterpret_cast<std::uintptr_t>(line) | idx,
                                  std::memory_order_relaxed);
            sparse.count.store(n + 1, std::memory_order_release);
            return *line;
        }
        // The eighth line: copy the entries into a LineTable and publish
        // it in place of the SparseTable, which stays as it is.
        LineTable *dense = tables_.carve();
        for (const std::atomic<std::uintptr_t> &entry : sparse.lines) {
            const std::uintptr_t e = entry.load(std::memory_order_relaxed);
            dense->lines[e & slotMask].store(
                reinterpret_cast<Line *>(e & ~slotMask),
                std::memory_order_relaxed);
        }
        dense->lines[idx].store(line, std::memory_order_relaxed);
        cell.store(reinterpret_cast<std::uintptr_t>(dense) | denseTag,
                   std::memory_order_release);
        return *line;
    }

    /** @p cell 's object, carved from @p slabs and published if absent
     *  (createMu_); @p count, if given, counts the creations. */
    template <typename T, std::size_t N>
    static T *
    publish(std::atomic<T *> &cell, Slabs<T, N> &slabs,
            std::atomic<std::size_t> *count = nullptr)
    {
        T *obj = cell.load(std::memory_order_relaxed);
        if (!obj) {
            obj = slabs.carve();
            cell.store(obj, std::memory_order_release);
            if (count)
                count->fetch_add(1, std::memory_order_relaxed);
        }
        return obj;
    }

    std::array<std::atomic<Mid *>, fanout> root_{};
    std::mutex createMu_;
    // One radix node per slab; tables and lines 64 KiB to a slab.
    Slabs<Mid, 1> mids_;
    Slabs<Leaf, 1> leaves_;
    Slabs<SparseTable, 1024> sparse_;
    Slabs<LineTable, 128> tables_;
    Slabs<Line, 1024> lines_;
    std::atomic<std::size_t> pageCount_{0};
    std::atomic<std::size_t> lineCount_{0};
};

} // namespace tako

#endif // TAKO_MEM_BACKING_STORE_HH
