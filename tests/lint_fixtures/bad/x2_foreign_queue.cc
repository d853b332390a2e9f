// Seeded X2 violations: direct EventQueue::schedule* on a foreign
// domain's queue, bypassing Domains::post/postAbs and the executor's
// sendKeyed mailbox — the event would not merge in the
// partition-invariant (tick, key) order.

void
bypassViaTrackedBinding(Domains &dom, Tick when)
{
    EventQueue &fq = dom.queueOf(3);
    fq.schedule(when, []() {}); // takolint-expect: X2
}

void
bypassViaDirectChain(Domains &dom, Tick when)
{
    dom.queueOfDomain(1).scheduleAbs(when, []() {}); // takolint-expect: X2
}

void
bypassViaQueueTable(EventQueue **queues_, int d, Tick when)
{
    queues_[d]->scheduleKeyed(when, []() {}, 1, 2); // takolint-expect: X2
}
