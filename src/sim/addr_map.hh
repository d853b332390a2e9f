/**
 * @file
 * A flat open-addressing hash map keyed by address.
 *
 * The per-access model tables (line locks, in-flight prefetches) need
 * find/insert/erase without a heap allocation per entry. AddrMap keeps
 * keys and values in one slot array: Fibonacci hashing of the key,
 * linear probing, backward-shift deletion (no tombstones, so probe
 * chains never decay), and doubling when an insert would make the table
 * more than half full.
 *
 * There is deliberately no iteration API. Slot order is hash order, and
 * hash order must never become simulated behaviour (takolint D1); with
 * only find/insert/erase, the result of every operation is independent
 * of where keys land.
 */

#ifndef TAKO_SIM_ADDR_MAP_HH
#define TAKO_SIM_ADDR_MAP_HH

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

template <typename V>
class AddrMap
{
  public:
    static constexpr std::size_t initialCapacity = 16;

    AddrMap() : slots_(initialCapacity) {}

    /** Home slot of @p key in a table of 2^@p log2_cap slots (public so
     *  tests can build colliding keys). */
    static std::size_t
    home(Addr key, unsigned log2_cap)
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> (64 - log2_cap));
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Number of keys present. */
    std::size_t size() const { return size_; }

    /** The value stored for @p key, or nullptr. Valid until the next
     *  insert or erase. */
    V *
    find(Addr key)
    {
        if (key == emptyKey)
            return nullptr;
        for (std::size_t i = home(key, log2Cap_);; i = next(i)) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == emptyKey)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrMap *>(this)->find(key);
    }

    /**
     * Insert @p key with a value-initialized V unless it is present.
     * Returns the key's value (valid until the next insert or erase) and
     * whether it was inserted.
     */
    std::pair<V *, bool>
    tryEmplace(Addr key)
    {
        panic_if(key == emptyKey, "AddrMap: %#llx is the empty-slot key",
                 (unsigned long long)key);
        if (V *v = find(key))
            return {v, false};
        if (2 * (size_ + 1) > slots_.size())
            grow();
        std::size_t i = home(key, log2Cap_);
        while (slots_[i].key != emptyKey)
            i = next(i);
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return {&slots_[i].value, true};
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(Addr key)
    {
        if (key == emptyKey)
            return false;
        std::size_t hole = home(key, log2Cap_);
        while (slots_[hole].key != key) {
            if (slots_[hole].key == emptyKey)
                return false;
            hole = next(hole);
        }
        // Backward-shift: pull each later chain member whose home does
        // not lie cyclically in (hole, j] back into the hole, so every
        // key stays reachable from its home without tombstones.
        for (std::size_t j = next(hole); slots_[j].key != emptyKey;
             j = next(j)) {
            const std::size_t h = home(slots_[j].key, log2Cap_);
            if (((j - h) & mask()) >= ((j - hole) & mask())) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].key = emptyKey;
        slots_[hole].value = V{};
        --size_;
        return true;
    }

  private:
    static constexpr Addr emptyKey = invalidAddr;

    struct Slot
    {
        Addr key = emptyKey;
        V value{};
    };

    std::size_t mask() const { return slots_.size() - 1; }
    std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        log2Cap_ = static_cast<unsigned>(std::countr_zero(slots_.size()));
        for (Slot &s : old) {
            if (s.key == emptyKey)
                continue;
            std::size_t i = home(s.key, log2Cap_);
            while (slots_[i].key != emptyKey)
                i = next(i);
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    unsigned log2Cap_ = std::countr_zero(initialCapacity);
    std::size_t size_ = 0;
};

/** Value type for an AddrMap used as a set. */
struct NoValue
{
};

using AddrSet = AddrMap<NoValue>;

} // namespace tako

#endif // TAKO_SIM_ADDR_MAP_HH
