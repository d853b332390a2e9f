/**
 * @file
 * takoprof: the profiling/attribution subsystem.
 *
 * A Profiler is one observer on a System's list (sim/observer.hh). It
 * consumes the System's observation records (record.hh) in their
 * released (tick, key) order, so its output is the same at every
 * shard count:
 *
 *   - cache lookups (level, line, hit) feed the miss classifiers
 *     (demand probes), and the probed set feeds per-set heat (every
 *     probe);
 *   - callback enqueue/retire records carry the same phase cycles the
 *     engine samples into the engine.breakdown.* histograms, keyed by
 *     (Morph, callback kind, tile), and the enqueue/retire pair drives a
 *     per-engine occupancy timeline;
 *   - Mesh counts busy cycles per directed link (enableLinkProfiling,
 *     turned on at attach), harvested at finish into a 2D heatmap.
 *
 * Everything is passive — counters and shadow tag state only, never an
 * event-queue interaction — so a profiled run is cycle-identical to an
 * unprofiled one (tests/test_prof.cc proves it).
 *
 * Output: the versioned `takoprof-v1` JSON document (writeJson; consumed
 * by tools/plot_results.py and validated by tools/validate_takoprof.py),
 * folded-stack lines for flamegraph tooling (writeFolded), and scalar
 * `prof.*` counters injected into the run's StatsRegistry so profiles
 * flow through --stats-json into takobench reports and spec "extras".
 */

#ifndef TAKO_PROF_PROFILER_HH
#define TAKO_PROF_PROFILER_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "prof/miss_classifier.hh"
#include "sim/observer.hh"
#include "sim/record.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tako::prof
{

class Profiler : public Observer
{
  public:
    static constexpr unsigned kKinds = 3;
    static const char *kindName(unsigned kind);

    /** Record kinds the profiler consumes. */
    static constexpr std::uint32_t kRecordKinds =
        recordBit(RecordKind::L1Lookup) | recordBit(RecordKind::L2Lookup) |
        recordBit(RecordKind::L3Lookup) | recordBit(RecordKind::CbEnqueue) |
        recordBit(RecordKind::CbRetire);

    /** Size the shadow stacks from @p sys's tiles, cache capacities and
     *  mesh, and turn on its mesh's link counters. */
    void attach(System &sys) override;

    std::uint32_t recordKinds() const override { return kRecordKinds; }

    /** Consume one released record (kinds outside kRecordKinds are
     *  ignored). */
    void record(const Record &r) override;

    /**
     * Harvest @p sys's NoC link counters, close occupancy intervals at
     * @p end and inject the prof.* scalar counters into its stats.
     * Idempotent: only the first call counts (a second run would
     * double-count).
     */
    void finish(System &sys, Tick end) override;
    bool finalized() const { return finalized_; }

    // --- output ------------------------------------------------------
    /** Emit the takoprof-v1 JSON document. @p header pairs (git_rev,
     *  workload, ...) are written verbatim after the schema tag. */
    void writeJson(std::ostream &os,
                   const std::vector<std::pair<std::string, std::string>>
                       &header = {}) const;

    /** Folded-stack lines (tileN;morph;kind;phase cycles) for
     *  flamegraph-style tools. */
    void writeFolded(std::ostream &os) const;

    // --- introspection (tests) ---------------------------------------
    /** Per-(tile, morph, kind) aggregates. */
    struct CallbackAgg
    {
        std::uint64_t count = 0;
        Tick admissionWait = 0; ///< callback-buffer (admission) wait
        Tick addrWait = 0;      ///< same-address ordering wait
        Tick dispatch = 0;      ///< scheduler + fabric-slot cycles
        Tick xlate = 0;         ///< rTLB + bitstream cycles
        Tick body = 0;          ///< morph callback body
        Tick total = 0;         ///< trigger to retire
    };
    using CallbackKey = std::tuple<int, std::string, unsigned>;

    /** Per-engine occupancy: callbacks in flight, trigger to retire. */
    struct EngineOcc
    {
        unsigned cur = 0;
        unsigned peak = 0;
        Tick lastChange = 0;
        /** cycles spent with occupancy == index */
        std::vector<Tick> levelCycles;
        std::vector<Tick> timelineTicks;
        std::vector<unsigned> timelineOcc;
        std::uint64_t droppedTransitions = 0;
    };

    const std::map<CallbackKey, CallbackAgg> &callbacks() const
    {
        return callbacks_;
    }
    const EngineOcc &engineOcc(int tile) const { return occ_[tile]; }
    const MissClassifier &l1() const { return l1_; }
    const MissClassifier &l2() const { return l2_; }
    const MissClassifier &l3() const { return l3_; }
    const std::vector<std::uint64_t> &linkBusyCycles() const
    {
        return linkBusy_;
    }
    /** Probes per set index at @p level (1: core + engine L1s, 2: L2s,
     *  3: L3 banks), summed over the level's arrays. */
    const std::vector<std::uint64_t> &
    setHeat(int level) const
    {
        return setHeat_[level - 1];
    }

  private:
    /** Cap on stored occupancy transitions per engine; beyond this the
     *  level-cycles histogram still accumulates, only the raw timeline
     *  stops growing (droppedTransitions counts the rest). */
    static constexpr std::size_t kTimelineCap = 4096;

    /** finish() past the NoC harvest: the stats half. */
    void finalize(Tick end, StatsRegistry &stats);
    void occDelta(int tile, Tick now, int delta);
    void writeMissClass(std::ostream &os, const MissClassifier &mc) const;
    std::vector<std::string> foldedLines() const;

    unsigned meshX_ = 0;
    unsigned meshY_ = 0;
    MissClassifier l1_{"l1"};
    MissClassifier l2_{"l2"};
    MissClassifier l3_{"l3"};
    std::vector<unsigned> l1StackCore_; ///< per-tile stack ids
    std::vector<unsigned> l1StackEng_;
    std::vector<unsigned> l2Stack_;

    std::map<CallbackKey, CallbackAgg> callbacks_;
    std::vector<EngineOcc> occ_;

    std::vector<std::uint64_t> linkBusy_; ///< tiles*4, Mesh layout
    std::vector<std::uint64_t> linkMsgs_;
    std::uint64_t nocMessages_ = 0;      ///< all traverses
    std::uint64_t nocLocalMessages_ = 0; ///< src == dst subset
    std::vector<std::uint64_t> setHeat_[3];

    Tick end_ = 0;
    bool finalized_ = false;
};

} // namespace tako::prof

#endif // TAKO_PROF_PROFILER_HH
