/**
 * @file
 * Fundamental simulator types and address helpers.
 *
 * Addresses are 64-bit. The simulated machine uses a single flat address
 * space; phantom ranges (täkō address ranges with no backing memory) are
 * carved out of the top of the space by the morph registry.
 */

#ifndef TAKO_SIM_TYPES_HH
#define TAKO_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace tako
{

/** Simulated time, in core clock cycles (2.4 GHz by default). */
using Tick = std::uint64_t;

/** A simulated (virtual == physical, see DESIGN.md) byte address. */
using Addr = std::uint64_t;

/** Invalid/sentinel values. */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Cache line size used throughout the hierarchy. */
constexpr unsigned lineBytes = 64;
constexpr unsigned lineShift = 6;

/** 64-bit words per cache line. */
constexpr unsigned wordsPerLine = lineBytes / 8;

/** Align @p addr down to its containing line. */
constexpr Addr
lineAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(lineBytes - 1);
}

/** Byte offset of @p addr within its line. */
constexpr unsigned
lineOffset(Addr addr)
{
    return static_cast<unsigned>(addr & (lineBytes - 1));
}

/** Line number (address >> lineShift). */
constexpr Addr
lineNumber(Addr addr)
{
    return addr >> lineShift;
}

/** True if [a, a+aLen) and [b, b+bLen) overlap. */
constexpr bool
rangesOverlap(Addr a, std::uint64_t a_len, Addr b, std::uint64_t b_len)
{
    return a < b + b_len && b < a + a_len;
}

/** Integer ceiling division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** True if @p v is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * A @p T alone on its cache line(s). Arrays of cells that different
 * host threads write (per-domain stat lanes, per-worker counters) hold
 * them in Padded so no two writers ever share a line.
 */
template <typename T>
struct alignas(64) Padded
{
    T value{};
};

} // namespace tako

#endif // TAKO_SIM_TYPES_HH
