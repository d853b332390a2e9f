// The partition-safe ways to move work across domains, plus the one
// reviewed direct-delivery site (suppressed with a reason).

// Cross-domain work goes through the router: it draws the key and
// routes through the executor mailbox.
void
crossDomainSignal(Domains &dom, int dstTile, Tick delta)
{
    dom.post(dstTile, delta, []() {});
}

// Scheduling on the *home* queue is same-domain work, not a bypass.
void
localWork(EventQueue &eq, Tick when)
{
    homeQueue(eq).schedule(when, []() {});
}

// The router's own delivery path lands directly on the destination
// queue once the key is drawn; reviewed and blessed.
void
routerInternal(EventQueue **queues_, int d, Tick when)
{
    // takolint: ok(X2, the router's own delivery path, the key is already drawn)
    queues_[d]->scheduleKeyed(when, []() {}, 1, 2);
}
