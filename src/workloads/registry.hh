/**
 * @file
 * Name-indexed registry of runnable workloads.
 *
 * One table maps every frontend a System can drive — the case-study
 * workloads and the takotrace replay — to its valid variants and a
 * uniform runner, so drivers (takosim, tests) dispatch by name instead
 * of growing per-workload if-chains.
 */

#ifndef TAKO_WORKLOADS_REGISTRY_HH
#define TAKO_WORKLOADS_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "workloads/common.hh"

namespace tako
{

/** Superset of runner inputs; each workload reads what it needs. */
struct WorkloadRequest
{
    std::string variant;
    std::uint64_t seed = 1;
    unsigned cores = 16;
    std::uint64_t vertices = 1 << 14; ///< phi / hats graph size
    std::uint64_t txBytes = 16 * 1024; ///< nvm transaction size
    std::string tracePath; ///< "trace" workload: file to replay
};

struct WorkloadEntry
{
    std::string name;
    /** Valid --variant values; empty for variant-less workloads (the
     *  trace replay takes its behavior from the trace file). */
    std::vector<std::string> variants;

    /**
     * Run on a system built from @p sys (seed already applied by the
     * caller). A failed run sets @p err and returns a default-
     * constructed RunMetrics. The request's variant is pre-validated
     * against `variants` by callers using findWorkload().
     */
    std::function<RunMetrics(const WorkloadRequest &req, SystemConfig sys,
                             std::string &err)>
        run;

    /** Space-joined variants, for help/error text. */
    std::string variantHelp() const;
};

/** All registered workloads, in listing order. */
const std::vector<WorkloadEntry> &workloadRegistry();

/** Entry for @p name, or nullptr. */
const WorkloadEntry *findWorkload(const std::string &name);

} // namespace tako

#endif // TAKO_WORKLOADS_REGISTRY_HH
