/**
 * @file
 * Mesh on-chip network model.
 *
 * Table 3: mesh, 128-bit flits and links, 2/1-cycle router/link delay.
 * Messages route XY. Each directed link keeps a next-free time; a message
 * of F flits occupies each link on its path for F cycles, so the model
 * captures both zero-load latency and serialization/queueing contention
 * without per-flit events.
 */

#ifndef TAKO_NOC_MESH_HH
#define TAKO_NOC_MESH_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "energy/energy.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tako
{

class Domains;

struct MeshParams
{
    unsigned dimX = 4;
    unsigned dimY = 4;
    Tick routerDelay = 2;
    Tick linkDelay = 1;
    unsigned flitBytes = 16; ///< 128-bit flits.
};

class Mesh
{
  public:
    Mesh(const MeshParams &params, StatsRegistry &stats,
         EnergyModel &energy);

    unsigned numTiles() const { return params_.dimX * params_.dimY; }
    unsigned dimX() const { return params_.dimX; }
    unsigned dimY() const { return params_.dimY; }

    /** Manhattan hop count between two tiles. */
    unsigned hops(int src, int dst) const;

    /**
     * Deliver a @p bytes -byte message from @p src to @p dst starting at
     * @p now; reserves link time on the path.
     * @return latency until the tail flit arrives.
     */
    Tick traverse(Tick now, int src, int dst, unsigned bytes);

    class Walk;

    /**
     * Domain-decomposed delivery: the message walks the XY path as a
     * chain of router-arrival events, reserving each directed link in
     * its owning tile's domain at the head flit's actual arrival time,
     * and the awaiting coroutine resumes *at the destination tile* when
     * the tail flit lands. Latency arithmetic per hop matches
     * traverse(); contention is resolved in arrival order (partition-
     * invariant) rather than at send time. The X leg hops column to
     * column (one event per router); the Y leg is one segment, since a
     * whole column shares a domain under the column-band plan.
     *
     * The returned awaiter is the walk's whole state. It lives in the
     * awaiting coroutine's frame and each router-arrival event calls
     * into it directly, so a message allocates no coroutine frame. On
     * resumption it adds the walk's latency to @p charge, when given.
     */
    Walk walk(Domains &dom, int src, int dst, unsigned bytes,
              Tick *charge = nullptr);

    /** Total flit-hops so far (the noc.flitHops stat; after a run). */
    std::uint64_t
    flitHops() const
    {
        return static_cast<std::uint64_t>(flitHopsStat_->value());
    }

    /**
     * Per-directed-link utilization (takoprof): piggybacks on the
     * linkFree_ reservation each traverse() already performs, counting
     * flit-cycles and messages per link. Off — and free — until enabled.
     * Index layout matches linkFree_: tile*4 + dir (E=0 W=1 N=2 S=3).
     */
    void enableLinkProfiling();
    const std::vector<std::uint64_t> &linkBusyCycles() const
    {
        return linkBusy_;
    }
    const std::vector<std::uint64_t> &linkMessages() const
    {
        return linkMsgs_;
    }

    void reset();

  private:
    /**
     * Book @p flits cycles on the link leaving @p tile in direction
     * @p dir for a head flit there at @p head.
     * @return the tick the head flit gets the link.
     */
    Tick reserve(int tile, int dir, Tick head, unsigned flits);

    /** Directed link index leaving @p tile in direction @p dir (0..3). */
    std::size_t
    linkIndex(int tile, int dir) const
    {
        return static_cast<std::size_t>(tile) * 4 + dir;
    }

    MeshParams params_;
    EnergyModel &energy_;
    Counter *messages_;
    Counter *localMessages_; ///< src == dst deliveries (no link, no hops)
    Counter *flitHopsStat_;
    std::vector<Tick> linkFree_;
    std::vector<std::uint64_t> linkBusy_; ///< empty unless profiling
    std::vector<std::uint64_t> linkMsgs_;
};

/**
 * Awaiter for Mesh::walk(). Queued router-arrival events hold its
 * address, so it can be neither copied nor moved: it must stay where
 * the co_await materialized it until the awaiting coroutine resumes.
 */
class Mesh::Walk
{
  public:
    Walk(Mesh &mesh, Domains &dom, int src, int dst, unsigned bytes,
         Tick *charge)
        : mesh_(mesh), dom_(dom), charge_(charge), src_(src), dst_(dst),
          bytes_(bytes)
    {
    }

    Walk(const Walk &) = delete;
    Walk &operator=(const Walk &) = delete;

    bool await_ready() const noexcept { return false; }

    /** Takes the walk's first step in the awaiting event. */
    void await_suspend(std::coroutine_handle<> caller);

    void
    await_resume() const noexcept
    {
        if (charge_)
            *charge_ += head_ - start_;
    }

  private:
    /** One router arrival at (x_, y_) at tick head_: an X hop, or the
     *  whole Y leg and the delivery once the column is reached. */
    void advance();

    Mesh &mesh_;
    Domains &dom_;
    Tick *charge_;
    std::coroutine_handle<> caller_;
    Tick start_ = 0;
    Tick head_ = 0; ///< head flit's arrival here; the tail's, once done
    int src_;
    int dst_;
    unsigned bytes_;
    unsigned flits_ = 0;
    unsigned hops_ = 0;
    int x_ = 0; ///< current router's column and row
    int y_ = 0;
    int dx_ = 0; ///< destination column and row
    int dy_ = 0;
};

inline Mesh::Walk
Mesh::walk(Domains &dom, int src, int dst, unsigned bytes, Tick *charge)
{
    return Walk(*this, dom, src, dst, bytes, charge);
}

} // namespace tako

#endif // TAKO_NOC_MESH_HH
