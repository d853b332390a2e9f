/**
 * @file
 * Per-line transaction locks with FIFO coroutine waiters.
 *
 * Cache controllers serialize transactions on the same line address by
 * acquiring the line's lock for the duration of the transaction. This is
 * also how the paper's per-address callback locking is realized: "the
 * address that triggered the callback is locked for the duration of
 * callback execution" (Sec. 4.3). Waiters resume through the event queue
 * in FIFO order, keeping the simulation deterministic.
 *
 * Neither acquire nor release allocates: held lines live in a flat
 * AddrMap, and each line's waiters form an intrusive FIFO threaded
 * through the acquire awaiters, which sit in the suspended coroutines'
 * frames until they are resumed.
 */

#ifndef TAKO_MEM_LOCK_TABLE_HH
#define TAKO_MEM_LOCK_TABLE_HH

#include <coroutine>

#include "sim/addr_map.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

class LineLockTable
{
  public:
    explicit LineLockTable(EventQueue &eq) : eq_(eq) {}

    LineLockTable(const LineLockTable &) = delete;
    LineLockTable &operator=(const LineLockTable &) = delete;

    bool held(Addr line) const { return locks_.contains(line); }

    /** Awaitable that suspends until the line lock is acquired; while
     *  suspended it is the line's wait-queue node. */
    class Awaiter
    {
      public:
        Awaiter(const Awaiter &) = delete;
        Awaiter &operator=(const Awaiter &) = delete;

        bool
        await_ready() noexcept
        {
            return table_.locks_.tryEmplace(line_).second;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            handle_ = h;
            Waiters &q = *table_.locks_.find(line_);
            if (q.tail)
                q.tail->next_ = this;
            else
                q.head = this;
            q.tail = this;
        }

        void await_resume() const noexcept {}

      private:
        friend class LineLockTable;

        Awaiter(LineLockTable &table, Addr line)
            : table_(table), line_(line)
        {
        }

        LineLockTable &table_;
        Addr line_;
        std::coroutine_handle<> handle_;
        Awaiter *next_ = nullptr;
    };

    Awaiter acquire(Addr line) { return Awaiter{*this, line}; }

    /** Release; hands the lock to the oldest waiter if any. */
    void
    release(Addr line)
    {
        Waiters *q = locks_.find(line);
        panic_if(!q, "releasing unheld lock %#llx",
                 (unsigned long long)line);
        Awaiter *w = q->head;
        if (!w) {
            locks_.erase(line);
            return;
        }
        q->head = w->next_;
        if (!q->head)
            q->tail = nullptr;
        // Resume in the releasing context's domain: lock tables are
        // tile-affine under decomposition, so the waiter belongs to
        // the same domain the release executes in.
        const std::coroutine_handle<> h = w->handle_;
        homeQueue(eq_).schedule(0, [h]() { h.resume(); });
    }

  private:
    /** A held line's waiters, oldest first; both null when none. */
    struct Waiters
    {
        Awaiter *head = nullptr;
        Awaiter *tail = nullptr;
    };

    EventQueue &eq_;
    /** Present key == lock held. */
    AddrMap<Waiters> locks_;
};

} // namespace tako

#endif // TAKO_MEM_LOCK_TABLE_HH
