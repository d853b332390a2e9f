/**
 * @file
 * C++20 coroutine plumbing for simulated threads.
 *
 * Guest programs (software threads on simulated cores) and täkō callbacks
 * (threads on near-cache engines) are written as coroutines returning
 * Task<> or Task<T>. Tasks are lazy: they run only when awaited or
 * spawned. Awaitables suspend the coroutine and schedule the event that
 * resumes it on the running event's queue (ctxQueue), so coroutines run
 * only inside events: a wait outside any event panics.
 *
 * Every frame is an arena allocation, so a function that only forwards
 * to another Task returns that Task rather than awaiting it, and spawn()
 * detaches a task of any result type without a wrapper frame.
 *
 * A coroutine waits on work it spawned (a täkō callback, an overlapped
 * fetch, a coherence visit) through a Join: each spawn passes
 * join.completion() as its on_done, and the waiter resumes in the
 * delta-0 event that the last done() schedules, never by symmetric
 * transfer from the spawned task's final suspend.
 *
 * Rule: completion callbacks must be invoked from the event queue, never
 * synchronously from within the issuing call. Every hardware component in
 * tako-sim has nonzero (or explicitly zero-delta scheduled) latency, so
 * this falls out naturally.
 */

#ifndef TAKO_SIM_TASK_HH
#define TAKO_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace tako
{

template <typename T>
class Task;

template <typename T>
void spawn(Task<T> task, std::function<void()> on_done = {});

namespace detail
{

struct PromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    /** Set by spawn(); runs at final suspend, before the frame is freed. */
    std::function<void()> onDone;

    // Coroutine frames come from the size-class arena: the compiler
    // routes frame allocation through the promise's operator new with
    // the full frame size.
    static void *
    operator new(std::size_t bytes)
    {
        return FrameArena::allocate(bytes);
    }

    static void
    operator delete(void *p, std::size_t bytes) noexcept
    {
        FrameArena::deallocate(p, bytes);
    }

    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            Promise &p = h.promise();
            // Symmetric transfer to whoever awaited us.
            if (p.continuation)
                return p.continuation;
            // Only spawn() starts a task with no awaiter: the task is
            // detached, so it reports completion and frees itself.
            panic_if(static_cast<bool>(p.exception),
                     "unhandled exception escaped a detached task");
            if (p.onDone)
                p.onDone();
            h.destroy();
            return std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }

    void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase
{
    T value{};

    Task<T> get_return_object();
    void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase
{
    Task<void> get_return_object();
    void return_void() {}
};

} // namespace detail

/**
 * A lazily-started coroutine yielding a T (or nothing), awaitable from
 * other coroutines. Modeled on cppcoro::task.
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    using promise_type = detail::Promise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}

    Task &
    operator=(Task &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, {});
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return static_cast<bool>(handle_); }
    bool done() const { return !handle_ || handle_.done(); }

    /** Awaiting a Task starts it and suspends the awaiter until done. */
    auto
    operator co_await() && noexcept
    {
        struct Awaiter
        {
            Handle h;

            bool await_ready() const noexcept { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                h.promise().continuation = cont;
                return h;
            }

            T
            await_resume()
            {
                if (h && h.promise().exception)
                    std::rethrow_exception(h.promise().exception);
                if constexpr (!std::is_void_v<T>)
                    return std::move(h.promise().value);
            }
        };
        return Awaiter{handle_};
    }

  private:
    template <typename U>
    friend void spawn(Task<U> task, std::function<void()> on_done);

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

namespace detail
{

template <typename T>
Task<T>
Promise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void>
Promise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<Promise<void>>::from_promise(*this));
}

} // namespace detail

/**
 * Start @p task detached; call @p on_done (if set) when it completes.
 * The task runs its first step immediately. It owns its frame from then
 * on: at final suspend it runs @p on_done and frees itself, dropping
 * its result. An empty Task completes at once.
 */
template <typename T>
void
spawn(Task<T> task, std::function<void()> on_done)
{
    const typename Task<T>::Handle h = std::exchange(task.handle_, {});
    if (!h) {
        if (on_done)
            on_done();
        return;
    }
    h.promise().onDone = std::move(on_done);
    h.resume();
}

/**
 * Awaitable that delays the coroutine by @p delta ticks, resuming on the
 * running event's queue (ctxQueue): a memory transaction that has walked
 * to a remote tile keeps running there, on that domain's queue.
 */
struct Delay
{
    Tick delta;

    bool await_ready() const noexcept { return delta == 0; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        ctxQueue().schedule(delta, [h]() { h.resume(); });
    }

    void await_resume() const noexcept {}
};

/**
 * Join counter: a coroutine awaits wait() until all added work items have
 * called done(). Work is added with add() before the await. Like
 * Semaphore below, the counter mutates on whichever queue calls done(),
 * so adders, finishers and the waiter must share one domain.
 */
// takolint: domain-local
class Join
{
  public:
    Join() = default;

    Join(const Join &) = delete;
    Join &operator=(const Join &) = delete;

    void add(unsigned n = 1) { outstanding_ += n; }

    void
    done()
    {
        panic_if(outstanding_ == 0, "Join::done() without matching add()");
        --outstanding_;
        if (outstanding_ == 0 && waiter_) {
            auto w = std::exchange(waiter_, {});
            ctxQueue().schedule(0, [w]() { w.resume(); });
        }
    }

    unsigned outstanding() const { return outstanding_; }

    /**
     * The on_done for spawn(): one done(). Captures `this` by value,
     * which is safe by construction: the coroutine that owns the Join
     * suspends on wait() and cannot destroy it until every outstanding
     * completion has run (takolint L1-clean, unlike an ad-hoc `[&join]`
     * capture). The waiter resumes in the delta-0 event the last done()
     * schedules, never inside the finishing task's final suspend.
     */
    auto completion()
    {
        Join *self = this;
        return [self]() { self->done(); };
    }

    auto
    wait()
    {
        struct Awaiter
        {
            Join &join;

            bool await_ready() const noexcept
            {
                return join.outstanding_ == 0;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                panic_if(static_cast<bool>(join.waiter_),
                         "Join awaited twice");
                join.waiter_ = h;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

  private:
    std::coroutine_handle<> waiter_;
    unsigned outstanding_ = 0;
};

/** The (address, write data) of one multi-op element: an address,
 *  written with @p wdata, or an (address, data) pair. */
inline std::pair<Addr, std::uint64_t>
addrData(Addr addr, std::uint64_t wdata)
{
    return {addr, wdata};
}

inline const std::pair<Addr, std::uint64_t> &
addrData(const std::pair<Addr, std::uint64_t> &op, std::uint64_t)
{
    return op;
}

/**
 * Overlap one operation per element of @p ops under one Join: spawn
 * slot(addr, wdata, out_i) for each element in index order, then wait
 * for them all. A bare-address element writes @p wdata. A non-null
 * @p out is sized to @p ops first, and slot i gets its element i to
 * fill (else null). Guest and engine multi-ops both run here; the slot
 * brings what bounds the overlap (a core's MLP window, an engine's
 * memory ports).
 */
template <typename Op, typename Slot>
Task<>
overlapOps(const std::vector<Op> &ops, std::uint64_t wdata,
           std::vector<std::uint64_t> *out, Slot slot)
{
    if (out)
        out->assign(ops.size(), 0);
    Join join;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto [addr, data] = addrData(ops[i], wdata);
        join.add();
        spawn(slot(addr, data, out ? &(*out)[i] : nullptr),
              join.completion());
    }
    co_await join.wait();
}

/**
 * Counting semaphore with FIFO coroutine waiters; completions are
 * scheduled through the event queue for determinism.
 *
 * Domain-local only: release() resumes the oldest waiter on the
 * *releaser's* queue, so under a decomposed run (--shards > 1) the
 * waiter's continuation would execute in the releaser's domain and any
 * work it then does at its own tile trips the cross-domain lookahead
 * panic. Every model use (engine ports, MSHR/WB entries, core windows)
 * keeps acquirers and releasers on one tile; cross-tile guest
 * synchronization wants workloads' SimBarrier, which routes wakeups
 * back to each waiter's tile through the domain router.
 */
// takolint: domain-local
class Semaphore
{
  public:
    explicit Semaphore(unsigned count) : count_(count) {}

    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    auto
    acquire()
    {
        struct Awaiter
        {
            Semaphore &sem;

            bool
            await_ready() const noexcept
            {
                if (sem.count_ > 0) {
                    --sem.count_;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem.waiters_.push_back(h);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    void
    release()
    {
        if (!waiters_.empty()) {
            // Hand the slot directly to the oldest waiter.
            auto h = waiters_.front();
            waiters_.erase(waiters_.begin());
            ctxQueue().schedule(0, [h]() { h.resume(); });
        } else {
            ++count_;
        }
    }

  private:
    unsigned count_;
    std::vector<std::coroutine_handle<>> waiters_;
};

} // namespace tako

#endif // TAKO_SIM_TASK_HH
