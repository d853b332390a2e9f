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
 */

#ifndef TAKO_MEM_LOCK_TABLE_HH
#define TAKO_MEM_LOCK_TABLE_HH

#include <coroutine>
#include <deque>
#include <map>

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

    /** Awaitable: suspends until the line lock is acquired. */
    auto
    acquire(Addr line)
    {
        struct Awaiter
        {
            LineLockTable &table;
            Addr line;

            bool
            await_ready() const noexcept
            {
                auto [it, inserted] = table.locks_.try_emplace(line);
                (void)it;
                return inserted;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                table.locks_[line].push_back(h);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this, line};
    }

    /** Release; hands the lock to the oldest waiter if any. */
    void
    release(Addr line)
    {
        auto it = locks_.find(line);
        panic_if(it == locks_.end(), "releasing unheld lock %#llx",
                 (unsigned long long)line);
        if (it->second.empty()) {
            locks_.erase(it);
        } else {
            auto h = it->second.front();
            it->second.pop_front();
            // Resume in the releasing context's domain: lock tables are
            // tile-affine under decomposition, so the waiter belongs to
            // the same domain the release executes in.
            homeQueue(eq_).schedule(0, [h]() { h.resume(); });
        }
    }

  private:
    EventQueue &eq_;
    /**
     * Present key == lock held; value == FIFO of waiters. Ordered
     * (takolint D1): never iterated today, but lock state is exactly the
     * kind of table a future diagnostic dump would walk.
     */
    std::map<Addr, std::deque<std::coroutine_handle<>>> locks_;
};

/** RAII-ish helper: released explicitly, asserts on leaks in debug. */
class LineLockGuard
{
  public:
    LineLockGuard(LineLockTable &table, Addr line)
        : table_(&table), line_(line)
    {
    }

    ~LineLockGuard() { panic_if(table_ != nullptr, "leaked line lock"); }

    LineLockGuard(const LineLockGuard &) = delete;
    LineLockGuard &operator=(const LineLockGuard &) = delete;

    void
    release()
    {
        table_->release(line_);
        table_ = nullptr;
    }

  private:
    LineLockTable *table_;
    Addr line_;
};

} // namespace tako

#endif // TAKO_MEM_LOCK_TABLE_HH
