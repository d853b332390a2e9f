// Domain-local objects used correctly: same-tile waits, anchor-tile
// funneling for cross-tile coordination, and one reviewed hand-off
// (suppressed with a reason).

// takolint: domain-local
struct GateSem
{
    int count = 0;
    void acquire() {}
    void release() {}
};

// Same-tile producer/consumer: the gate never leaves its domain.
Task<>
portedAccess(GateSem &gate)
{
    gate.acquire();
    co_await Delay{4};
    gate.release();
    co_return;
}

// The anchor-tile funnel: work is posted *to* the owning tile and the
// callable carries only values, like workloads' SimBarrier.
void
funnelThroughAnchor(Domains &dom, int ownerTile, Tick delta, int seq)
{
    dom.post(ownerTile, delta, [seq]() { noteArrival(seq); });
}

Task<>
reviewedHandoff(Domains &dom, GateSem &gate, int bank)
{
    co_await dom.hopTo(bank);
    // takolint: ok(C1, bank is gate's owner tile on every call path)
    gate.release();
    co_return;
}
