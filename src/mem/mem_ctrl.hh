/**
 * @file
 * Memory controller with fixed access latency plus a bandwidth model.
 *
 * Matches the paper's Table 3: 4 controllers, 100-cycle latency,
 * 11.8 GB/s per controller. Bandwidth is modeled with a next-free-time
 * per controller: each 64B access occupies the channel for
 * lineBytes / bytesPerCycle cycles; later accesses queue behind it.
 */

#ifndef TAKO_MEM_MEM_CTRL_HH
#define TAKO_MEM_MEM_CTRL_HH

#include <algorithm>
#include <cstdint>

#include "sim/types.hh"

namespace tako
{

class MemCtrl
{
  public:
    MemCtrl(Tick access_latency, double bytes_per_cycle)
        : latency_(access_latency),
          serviceCycles_(static_cast<Tick>(
              static_cast<double>(lineBytes) / bytes_per_cycle + 0.5))
    {
    }

    /**
     * Account one 64B access starting no earlier than @p now.
     * @return total latency from @p now until the data is available.
     */
    Tick
    access(Tick now)
    {
        const Tick start = std::max(now, nextFree_);
        nextFree_ = start + serviceCycles_;
        ++accesses_;
        return (start - now) + serviceCycles_ + latency_;
    }

    std::uint64_t accesses() const { return accesses_; }
    Tick serviceCycles() const { return serviceCycles_; }

  private:
    Tick latency_;
    Tick serviceCycles_;
    Tick nextFree_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace tako

#endif // TAKO_MEM_MEM_CTRL_HH
