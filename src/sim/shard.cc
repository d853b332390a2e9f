#include "sim/shard.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "sim/logging.hh"
#include "sim/record.hh"

namespace tako
{

ShardPlan
ShardPlan::build(unsigned dimX, unsigned dimY, Tick routerDelay,
                 Tick linkDelay, unsigned shards)
{
    ShardPlan plan;
    plan.dimX = dimX ? dimX : 1;
    plan.dimY = dimY ? dimY : 1;
    plan.shards = std::clamp(shards, 1u, plan.dimX);
    // One boundary crossing costs at least one router and one link
    // traversal; that floor is the window inside which no shard can
    // observe another shard's same-window events.
    plan.quantum = std::max<Tick>(1, routerDelay + linkDelay);
    plan.columnShard.resize(plan.dimX);
    for (unsigned c = 0; c < plan.dimX; ++c)
        plan.columnShard[c] = static_cast<unsigned>(
            std::uint64_t{c} * plan.shards / plan.dimX);
    for (unsigned c = 0; c + 1 < plan.dimX; ++c) {
        if (plan.columnShard[c] != plan.columnShard[c + 1])
            plan.boundaryLinks += 2 * plan.dimY; // E + W directed links
    }
    return plan;
}

ShardedExecutor::ShardedExecutor(std::vector<EventQueue *> domains,
                                 Tick quantum, unsigned threads,
                                 Recorder *recorder)
    : domains_(std::move(domains)), quantum_(std::max<Tick>(1, quantum))
{
    if (recorder && recorder->active())
        recorder_ = recorder;
    panic_if(domains_.empty(),
             "sharded executor needs at least one domain");
    for (const EventQueue *q : domains_)
        panic_if(q == nullptr, "sharded executor given a null domain");
    const unsigned n = static_cast<unsigned>(domains_.size());
    threads_ = threads == 0 ? n : std::clamp(threads, 1u, n);
    for (std::vector<std::vector<ShardEvent>> &boxes : mail_)
        boxes.resize(std::size_t{n} * n);
    sendSeq_.resize(n);
    profiles_.resize(n);
    barrierWait_.resize(threads_);
    // Spinning assumes the releasing worker is running on another CPU.
    // When workers outnumber hardware threads (CI -j8 child fan-out,
    // small containers), a waiter's spin burns the very timeslice the
    // last arriver needs, turning each barrier into a scheduling
    // quantum — yield almost immediately instead.
    const unsigned hw = std::thread::hardware_concurrency();
    spinLimit_ = (hw != 0 && threads_ > hw) ? 16u : (1u << 14);
}

double
ShardedExecutor::barrierWaitSeconds() const
{
    double total = 0;
    for (const Padded<double> &w : barrierWait_)
        total += w.value;
    return total;
}

std::uint64_t
ShardedExecutor::crossShardEvents() const
{
    std::uint64_t total = 0;
    for (const DomainProfile &prof : profiles_)
        total += prof.received;
    return total;
}

void
ShardedExecutor::sendKeyed(unsigned src, unsigned dst, Tick when,
                           std::uint64_t key, std::uint32_t execStream,
                           std::function<void()> fn)
{
    const unsigned n = static_cast<unsigned>(domains_.size());
    panic_if(src >= n || dst >= n || src == dst,
             "shard send %u -> %u is not between two of shards 0..%u",
             src, dst, n - 1);
    ++sendSeq_[src].value;
    mail_[parity_][std::size_t{src} * n + dst].push_back(
        {when, key, execStream, std::move(fn)});
}

void
ShardedExecutor::drainInbox(unsigned shard, Tick windowStart)
{
    const unsigned n = static_cast<unsigned>(domains_.size());
    std::vector<std::vector<ShardEvent>> &boxes = mail_[parity_ ^ 1];
    EventQueue &q = *domains_[shard];
    DomainProfile &prof = profiles_[shard];
    for (unsigned src = 0; src < n; ++src) {
        std::vector<ShardEvent> &box = boxes[std::size_t{src} * n + shard];
        // The queue's keyed insert places each event by (tick, key), so
        // delivery order within and across senders is free.
        for (ShardEvent &ev : box) {
            panic_if(ev.when < windowStart,
                     "cross-shard event for shard %u at tick %llu "
                     "arrived in the window starting at %llu: the "
                     "sender violated the lookahead quantum (%llu)",
                     shard, (unsigned long long)ev.when,
                     (unsigned long long)windowStart,
                     (unsigned long long)quantum_);
            q.scheduleKeyed(ev.when, std::move(ev.fn), ev.key,
                            ev.execStream);
        }
        prof.received += box.size();
        prof.maxInboxDepth = std::max<std::uint64_t>(prof.maxInboxDepth,
                                                     box.size());
        box.clear();
    }
}

void
ShardedExecutor::runSolo(unsigned shard)
{
    EventQueue &q = *domains_[shard];
    // A solo domain may run free up to the cut: every other domain is
    // idle and nothing can reach this one's inbox until it sends. The
    // first outbound send ends the free run — from then on another
    // domain has future work, and lockstep windows resume from this
    // domain's current position.
    const std::uint64_t sentBefore = sendSeq_[shard].value;
    const std::uint64_t firedBefore = q.eventsFired();
    while (sendSeq_[shard].value == sentBefore && q.step(limit_)) {
        // Every other domain is idle, so nothing can still be emitted
        // below this domain's clock: keep its buffer bounded.
        if (recorder_ && recorder_->buffered(shard) >= Recorder::kSoloCap)
            recorder_->release(q.now());
    }
    const std::uint64_t fired = q.eventsFired() - firedBefore;
    DomainProfile &prof = profiles_[shard];
    prof.executed += fired;
    if (fired > prof.maxRoundEvents)
        prof.maxRoundEvents = fired;
}

namespace
{

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

ShardedExecutor::RoundState
ShardedExecutor::barrierSync(unsigned worker)
{
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        threads_) {
        // Last arriver: advance the round while everyone else spins,
        // then release them. arrived_ must reset before the generation
        // bump — workers may hit the next barrier immediately.
        advanceRound();
        // No domain executes anything below the next window start, so
        // the records beneath it are final (run end releases the rest).
        if (recorder_ && !done_)
            recorder_->release(windowStart_);
        arrived_.store(0, std::memory_order_relaxed);
        generation_.store(gen + 1, std::memory_order_release);
    } else {
        // A quantum window is typically a few events per domain, far
        // cheaper than a futex round trip, so spin first and only
        // account (and yield) once the wait is clearly a straggler
        // stall. The host-clock reads feed host.* gauges only.
        unsigned spins = 0;
        while (generation_.load(std::memory_order_acquire) == gen) {
            cpuRelax();
            if (++spins >= spinLimit_) {
                // takolint: ok(D2, stall time feeds only host.* gauges)
                const auto t0 = std::chrono::steady_clock::now();
                while (generation_.load(std::memory_order_acquire) ==
                       gen)
                    std::this_thread::yield();
                // takolint: ok(D2, stall time feeds only host.* gauges)
                const auto t1 = std::chrono::steady_clock::now();
                barrierWait_[worker].value +=
                    std::chrono::duration<double>(t1 - t0).count();
                break;
            }
        }
    }
    return RoundState{windowStart_, soloDomain_, done_};
}

void
ShardedExecutor::advanceRound()
{
    ++rounds_;
    const unsigned prevSolo = soloDomain_;
    soloDomain_ = kNoSolo;

    // This round's sends are the next round's deliveries.
    const bool anyMail =
        std::any_of(mail_[parity_].begin(), mail_[parity_].end(),
                    [](const std::vector<ShardEvent> &box) {
                        return !box.empty();
                    });
    parity_ ^= 1;
    unsigned pendingDomains = 0;
    unsigned pendingIdx = 0;
    Tick minNext = 0;
    for (unsigned i = 0; i < domains_.size(); ++i) {
        Tick t = 0;
        if (domains_[i]->nextEventTime(t)) {
            if (pendingDomains == 0 || t < minNext)
                minNext = t;
            pendingIdx = i;
            ++pendingDomains;
        }
    }

    if (!anyMail && pendingDomains == 0) {
        done_ = true;
        return;
    }
    if (anyMail) {
        // In-flight mail was sent no earlier than the finished window
        // (or the solo domain's final position), and every send is
        // timestamped at least one quantum ahead — so the next lockstep
        // window starts safely below every undelivered timestamp.
        if (prevSolo != kNoSolo) {
            // A solo run stops at its first outbound send, which can
            // leave events pending at the very tick it stopped on (same
            // tick, later key) or just after. The resumed window must
            // start at or below every pending event, not one past the
            // solo clock — otherwise a leftover event executes inside a
            // window that already began beyond it, and its quantum-ahead
            // sends land below the *next* window start (a lookahead
            // violation at the receiver).
            Tick w = domains_[prevSolo]->now() + 1;
            if (pendingDomains > 0 && minNext < w)
                w = minNext;
            windowStart_ = w;
        } else {
            windowStart_ = windowStart_ + quantum_;
        }
        // Nothing below the window start is pending anywhere, so a
        // window past the cut means the bounded run is complete.
        done_ = windowStart_ > limit_;
        return;
    }
    // No mail in flight: jump straight to the earliest pending event.
    // With a single busy domain there is nothing to synchronize against
    // until it sends, so let it run free.
    windowStart_ = minNext;
    if (windowStart_ > limit_) {
        done_ = true;
        return;
    }
    if (pendingDomains == 1) {
        soloDomain_ = pendingIdx;
        ++soloRounds_;
    }
}

void
ShardedExecutor::workerLoop(unsigned worker)
{
    const unsigned n = static_cast<unsigned>(domains_.size());
    Tick start = 0;
    unsigned solo = kNoSolo;
    while (true) {
        // A solo round follows a round that sent no mail, so it has
        // nothing to deliver.
        if (solo != kNoSolo) {
            if (solo % threads_ == worker)
                runSolo(solo);
        } else {
            const Tick windowEnd = std::min(start + quantum_ - 1, limit_);
            for (unsigned s = worker; s < n; s += threads_) {
                drainInbox(s, start);
                EventQueue &q = *domains_[s];
                const std::uint64_t before = q.eventsFired();
                q.runThrough(windowEnd);
                const std::uint64_t fired = q.eventsFired() - before;
                DomainProfile &prof = profiles_[s];
                prof.executed += fired;
                if (fired > prof.maxRoundEvents)
                    prof.maxRoundEvents = fired;
                if (fired == 0)
                    ++prof.idleRounds;
            }
        }
        const RoundState rs = barrierSync(worker);
        if (rs.done)
            return;
        start = rs.start;
        solo = rs.solo;
    }
}

void
ShardedExecutor::run(Tick limit)
{
    limit_ = limit;
    windowStart_ = 0;
    soloDomain_ = kNoSolo;
    done_ = false;
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(0, std::memory_order_release);
    std::vector<std::thread> workers;
    workers.reserve(threads_ - 1);
    for (unsigned w = 1; w < threads_; ++w)
        workers.emplace_back([this, w] { workerLoop(w); });
    workerLoop(0);
    for (std::thread &t : workers)
        t.join();
    // A bounded run simulated the whole interval: bring every clock to
    // the cut (firing advance hooks up to it). Nothing at or before the
    // cut is left, so these calls run no event.
    if (limit != kNoLimit)
        for (EventQueue *q : domains_)
            q->runUntil(limit);
    if (recorder_)
        recorder_->releaseAll();
    EventQueue::clearExecCtx();
}

void
runLanes(unsigned lanes, const std::vector<std::function<void()>> &jobs)
{
    if (jobs.empty())
        return;
    const unsigned n = std::clamp<unsigned>(
        lanes, 1, static_cast<unsigned>(jobs.size()));
    if (n == 1) {
        for (const std::function<void()> &job : jobs)
            job();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned w = 0; w < n; ++w) {
        pool.emplace_back([w, n, &jobs] {
            for (std::size_t i = w; i < jobs.size(); i += n)
                jobs[i]();
        });
    }
    for (std::thread &t : pool)
        t.join();
}

} // namespace tako
