/**
 * @file
 * The one observation path: typed fixed-size records in per-domain
 * buffers, released to consumers in the kernel's total order.
 *
 * Model code pushes one Record per observable step into the buffer of
 * the shard domain it executes in, stamped with the emitting event's
 * (tick, key) from ExecCtx. ShardedExecutor releases records once no
 * domain can still emit below them (each barrier, solo rounds past
 * kSoloCap, run end), in (tick, key) order and stable within an event,
 * so every consumer — the record observers (observer.hh) and the
 * accessTracer — sees the same stream at every shard count while the
 * buffers stay bounded.
 * With nothing subscribed a site costs one branch (Recorder::on).
 * DESIGN.md §4.5 has the argument.
 */

#ifndef TAKO_SIM_RECORD_HH
#define TAKO_SIM_RECORD_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/exec_ctx.hh"
#include "sim/types.hh"

namespace tako
{

/** What a record describes, and how it uses the payload fields. */
enum class RecordKind : std::uint8_t
{
    /** Core demand access issued: op = MemCmd, flags kNoFetch/kUseOnce,
     *  addr = byte address, w[0] = store data. */
    DemandIssue,
    /** Cache lookups: addr = line, w[0] = the probed set, w[1] = the
     *  array's set count. L1Lookup: a demand L1 probe, flags
     *  kHit/kEngine. L2Lookup: flags kHit/kPrefetch. L3Lookup: tile =
     *  bank, flags kHit. */
    L1Lookup,
    L2Lookup,
    L3Lookup,
    /** Memory transaction finished: addr = byte address, name = span
     *  name, flags kEngine, w[0] = start tick, w[1..5] = latency
     *  breakdown (cache, noc, lock wait, dram, callback wait). */
    MemDone,
    DramRead,  ///< tile = controller, addr = line, w[0] = latency
    DramWrite, ///< tile = controller, addr = line, w[0] = latency
    CbEnqueue, ///< callback arrives at the engine of `tile`
    /** Callback retired: op = CallbackKind, addr = line, name = morph
     *  name, w[0] = enqueue tick, w[1..5] = admission wait, address
     *  wait, dispatch, translation, body cycles. */
    CbRetire,
};

/** Gate bit of @p k in a kind mask. */
constexpr std::uint32_t
recordBit(RecordKind k)
{
    return 1u << static_cast<unsigned>(k);
}

/** One observation. Trivially copyable; `name` borrows storage that
 *  outlives the run (a literal, or the morph's name). */
struct Record
{
    static constexpr std::uint8_t kHit = 1;
    static constexpr std::uint8_t kEngine = 2;
    static constexpr std::uint8_t kNoFetch = 4;
    static constexpr std::uint8_t kUseOnce = 8;
    static constexpr std::uint8_t kPrefetch = 16;

    Tick tick = 0;            ///< simulated time of the emitting event
    std::uint64_t key = 0;    ///< the emitting event's tie-break key
    Addr addr = 0;
    std::uint64_t w[6] = {};  ///< kind-specific payload words
    const char *name = nullptr;
    std::int32_t tile = 0;
    RecordKind kind = RecordKind::DemandIssue;
    std::uint8_t op = 0;
    std::uint8_t flags = 0;

    bool has(std::uint8_t flag) const { return (flags & flag) != 0; }

    /** The emitting event's place in the kernel's total order. */
    EventOrder order() const { return {tick, key}; }
};

static_assert(std::is_trivially_copyable_v<Record>);

/**
 * Per-domain record buffers plus their consumers. Model code pushes
 * from inside events; the executor calls release() only while no domain
 * executes (barriers, run end) or from the lone running domain's worker
 * (solo rounds).
 */
class Recorder
{
  public:
    using Consumer = std::function<void(const Record &)>;

    /** Buffered records a solo round may hold before it releases. */
    static constexpr std::size_t kSoloCap = 4096;

    /** One buffer per shard domain (call before the run). */
    void setDomains(unsigned n) { lanes_.resize(std::max(n, 1u)); }

    /** Deliver every record whose kind is in @p kinds to @p fn. */
    void
    subscribe(std::uint32_t kinds, Consumer fn)
    {
        consumers_.emplace_back(kinds, std::move(fn));
        mask_ |= kinds;
    }

    /** One-branch emission gate. */
    bool on(RecordKind k) const { return (mask_ & recordBit(k)) != 0; }

    bool active() const { return mask_ != 0; }

    /** Buffer @p r (tick set by the caller) in the executing domain,
     *  stamped with the running event's key. */
    void
    push(Record r)
    {
        const ExecCtx &ctx = execCtx();
        r.key = ctx.key;
        lanes_[ctx.domain].recs.push_back(r);
    }

    std::size_t buffered(unsigned d) const { return lanes_[d].recs.size(); }

    /**
     * Release every buffered record with tick < @p horizon, in merge
     * order. A domain executes in nondecreasing tick order, so those
     * records are a prefix of its buffer; a stable sort of the
     * concatenated prefixes also keeps one event's records in emission
     * order.
     */
    void
    release(Tick horizon)
    {
        if (!active())
            return;
        batch_.clear();
        for (Lane &lane : lanes_) {
            std::vector<Record> &recs = lane.recs;
            const auto cut = std::partition_point(
                recs.begin(), recs.end(),
                [horizon](const Record &r) { return r.tick < horizon; });
            batch_.insert(batch_.end(), recs.begin(), cut);
            recs.erase(recs.begin(), cut);
        }
        std::stable_sort(batch_.begin(), batch_.end(),
                         [](const Record &a, const Record &b) {
                             return a.order() < b.order();
                         });
        for (const Record &r : batch_)
            for (const auto &[kinds, fn] : consumers_)
                if (kinds & recordBit(r.kind))
                    fn(r);
    }

    /** Release everything (run end). */
    void releaseAll() { release(~Tick{0}); }

  private:
    struct alignas(64) Lane
    {
        std::vector<Record> recs;
    };

    std::uint32_t mask_ = 0;
    std::vector<Lane> lanes_{1};
    std::vector<std::pair<std::uint32_t, Consumer>> consumers_;
    std::vector<Record> batch_; ///< release scratch, reused
};

} // namespace tako

#endif // TAKO_SIM_RECORD_HH
