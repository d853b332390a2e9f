/**
 * @file
 * Side-channel detection (Sec. 8.4): a "real data" Morph over a secure
 * data structure (e.g., AES T-tables) at the SHARED cache. Its only
 * callback is onEviction, which interrupts the victim thread whenever a
 * table line is evicted — the signature of a prime+probe attack priming
 * the victim's sets (Table 7, Fig. 21).
 */

#ifndef TAKO_MORPHS_EVICTION_GUARD_MORPH_HH
#define TAKO_MORPHS_EVICTION_GUARD_MORPH_HH

#include <algorithm>
#include <vector>

#include "tako/engine.hh"
#include "tako/morph.hh"

namespace tako
{

class EvictionGuardMorph : public Morph
{
  public:
    struct Event
    {
        Tick when;
        Addr line;
    };

    /** @p tiles sizes the per-tile traces: the guard is registered
     *  SHARED, so every bank's engine records its own evictions. */
    EvictionGuardMorph(int victim_core, unsigned tiles)
        : Morph(MorphTraits{
              .name = "evictionGuard",
              .hasMiss = false,
              .hasEviction = true,
              .hasWriteback = true,
              .evictionKernel = {4, 2},
              .writebackKernel = {4, 2},
          }),
          victimCore_(victim_core),
          traces_(tiles)
    {
    }

    Task<>
    onEviction(EngineCtx &ctx) override
    {
        traces_[static_cast<std::size_t>(ctx.tile())].push_back(
            Event{ctx.now(), ctx.addr()});
        co_await ctx.compute(4, 2);
        ctx.interrupt(victimCore_);
    }

    Task<>
    onWriteback(EngineCtx &ctx) override
    {
        co_await onEviction(ctx);
    }

    /** Every tile's evictions, merged in (tick, line) order. */
    std::vector<Event>
    trace() const
    {
        std::vector<Event> all;
        for (const std::vector<Event> &t : traces_)
            all.insert(all.end(), t.begin(), t.end());
        std::sort(all.begin(), all.end(),
                  [](const Event &a, const Event &b) {
                      return a.when != b.when ? a.when < b.when
                                              : a.line < b.line;
                  });
        return all;
    }

  private:
    int victimCore_;
    /** One trace per bank engine, touched only by that tile's domain. */
    std::vector<std::vector<Event>> traces_;
};

} // namespace tako

#endif // TAKO_MORPHS_EVICTION_GUARD_MORPH_HH
