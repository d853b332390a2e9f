#include "noc/mesh.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/domains.hh"

namespace tako
{

namespace
{

enum Direction : int
{
    East = 0,
    West = 1,
    North = 2,
    South = 3,
};

} // namespace

Mesh::Mesh(const MeshParams &params, StatsRegistry &stats,
           EnergyModel &energy)
    : params_(params),
      energy_(energy),
      messages_(stats.handle("noc.messages")),
      localMessages_(stats.handle("noc.localMessages")),
      flitHopsStat_(stats.handle("noc.flitHops")),
      linkFree_(static_cast<std::size_t>(params.dimX) * params.dimY * 4, 0)
{
}

unsigned
Mesh::hops(int src, int dst) const
{
    const int sx = src % static_cast<int>(params_.dimX);
    const int sy = src / static_cast<int>(params_.dimX);
    const int dx = dst % static_cast<int>(params_.dimX);
    const int dy = dst / static_cast<int>(params_.dimX);
    return static_cast<unsigned>(std::abs(sx - dx) + std::abs(sy - dy));
}

Tick
Mesh::reserve(int tile, int dir, Tick head, unsigned flits)
{
    const std::size_t li = linkIndex(tile, dir);
    Tick &free = linkFree_[li];
    const Tick start = std::max(head, free);
    free = start + flits;
    if (!linkBusy_.empty()) {
        linkBusy_[li] += flits;
        ++linkMsgs_[li];
    }
    return start;
}

Tick
Mesh::traverse(Tick now, int src, int dst, unsigned bytes)
{
    ++*messages_;
    const unsigned flits =
        std::max<unsigned>(1, static_cast<unsigned>(
                                  divCeil(bytes, params_.flitBytes)));

    if (src == dst) {
        // Local delivery still crosses the tile router once, but books
        // no flit-hops and touches no link — count it separately so the
        // per-link totals reconcile with noc.messages.
        ++*localMessages_;
        return params_.routerDelay;
    }

    int x = src % static_cast<int>(params_.dimX);
    int y = src / static_cast<int>(params_.dimX);
    const int dx = dst % static_cast<int>(params_.dimX);
    const int dy = dst / static_cast<int>(params_.dimX);

    Tick head = now;
    unsigned hop_count = 0;
    while (x != dx || y != dy) {
        int dir;
        int nx = x, ny = y;
        if (x != dx) {
            dir = (dx > x) ? East : West;
            nx += (dx > x) ? 1 : -1;
        } else {
            dir = (dy > y) ? South : North;
            ny += (dy > y) ? 1 : -1;
        }
        const Tick start =
            reserve(y * static_cast<int>(params_.dimX) + x, dir, head, flits);
        head = start + params_.routerDelay + params_.linkDelay;
        ++hop_count;
        x = nx;
        y = ny;
    }
    // Destination router plus tail-flit serialization.
    head += params_.routerDelay + (flits - 1);

    *flitHopsStat_ += static_cast<double>(std::uint64_t(flits) * hop_count);
    energy_.nocFlitHops(std::uint64_t(flits) * hop_count);
    return head - now;
}

void
Mesh::Walk::await_suspend(std::coroutine_handle<> caller)
{
    caller_ = caller;
    const MeshParams &p = mesh_.params_;
    ++*mesh_.messages_;
    flits_ = std::max<unsigned>(
        1, static_cast<unsigned>(divCeil(bytes_, p.flitBytes)));
    start_ = head_ = ctxNow();

    if (src_ == dst_) {
        ++*mesh_.localMessages_;
        head_ += p.routerDelay;
        dom_.postAbs(dst_, head_, [this]() { caller_.resume(); });
        return;
    }
    const int dimX = static_cast<int>(p.dimX);
    x_ = src_ % dimX;
    y_ = src_ / dimX;
    dx_ = dst_ % dimX;
    dy_ = dst_ / dimX;
    advance();
}

void
Mesh::Walk::advance()
{
    const MeshParams &p = mesh_.params_;
    const int dimX = static_cast<int>(p.dimX);

    // X leg: every hop crosses a column, so each reservation happens in
    // an event at the link's source tile (its owning domain) at the head
    // flit's arrival tick, and the next arrival is routerDelay+linkDelay
    // (= one quantum) ahead — exactly the plan's lookahead floor.
    if (x_ != dx_) {
        const int dir = (dx_ > x_) ? East : West;
        const Tick start =
            mesh_.reserve(y_ * dimX + x_, dir, head_, flits_);
        ++hops_;
        x_ += (dx_ > x_) ? 1 : -1;
        head_ = start + p.routerDelay + p.linkDelay;
        dom_.postAbs(y_ * dimX + x_, head_, [this]() { advance(); });
        return;
    }

    // Y leg: the whole column belongs to the current domain, so the
    // remaining links are reserved here and now, in one event, with the
    // same per-hop recurrence traverse() uses.
    while (y_ != dy_) {
        const int dir = (dy_ > y_) ? South : North;
        const Tick start =
            mesh_.reserve(y_ * dimX + x_, dir, head_, flits_);
        head_ = start + p.routerDelay + p.linkDelay;
        ++hops_;
        y_ += (dy_ > y_) ? 1 : -1;
    }
    // Destination router plus tail-flit serialization.
    head_ += p.routerDelay + (flits_ - 1);

    const std::uint64_t flitHops = std::uint64_t(flits_) * hops_;
    *mesh_.flitHopsStat_ += static_cast<double>(flitHops);
    mesh_.energy_.nocFlitHops(flitHops);
    dom_.postAbs(dst_, head_, [this]() { caller_.resume(); });
}

void
Mesh::enableLinkProfiling()
{
    linkBusy_.assign(linkFree_.size(), 0);
    linkMsgs_.assign(linkFree_.size(), 0);
}

void
Mesh::reset()
{
    std::fill(linkFree_.begin(), linkFree_.end(), 0);
    flitHopsStat_->reset();
    std::fill(linkBusy_.begin(), linkBusy_.end(), 0);
    std::fill(linkMsgs_.begin(), linkMsgs_.end(), 0);
}

} // namespace tako
