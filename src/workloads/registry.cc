#include "workloads/registry.hh"

#include <map>

#include "trace/replay.hh"
#include "workloads/aos_soa.hh"
#include "workloads/decompress.hh"
#include "workloads/nvm_tx.hh"
#include "workloads/pagerank_pull.hh"
#include "workloads/pagerank_push.hh"
#include "workloads/prime_probe.hh"

namespace tako
{

std::string
WorkloadEntry::variantHelp() const
{
    std::string s;
    for (const std::string &v : variants) {
        if (!s.empty())
            s += " ";
        s += v;
    }
    return s;
}

namespace
{

RunMetrics
runDecompressEntry(const WorkloadRequest &req, SystemConfig sys,
                   std::string &)
{
    DecompressConfig cfg;
    cfg.seed = req.seed;
    const std::map<std::string, DecompressVariant> v{
        {"baseline", DecompressVariant::Baseline},
        {"precompute", DecompressVariant::Precompute},
        {"ndc", DecompressVariant::Ndc},
        {"tako", DecompressVariant::Tako},
        {"ideal", DecompressVariant::TakoIdeal}};
    return runDecompress(v.at(req.variant), cfg, sys);
}

RunMetrics
runPhiEntry(const WorkloadRequest &req, SystemConfig sys, std::string &)
{
    PagerankPushConfig cfg;
    cfg.graph.numVertices = req.vertices;
    cfg.graph.seed = req.seed;
    cfg.threads = req.cores;
    cfg.regionVertices = 256;
    const std::map<std::string, PushVariant> v{
        {"baseline", PushVariant::Baseline},
        {"ub", PushVariant::UpdateBatching},
        {"tako", PushVariant::Phi},
        {"ideal", PushVariant::PhiIdeal}};
    return runPagerankPush(v.at(req.variant), cfg, sys);
}

RunMetrics
runHatsEntry(const WorkloadRequest &req, SystemConfig sys, std::string &)
{
    PagerankPullConfig cfg;
    cfg.graph.numVertices = req.vertices;
    cfg.graph.seed = req.seed;
    const std::map<std::string, PullVariant> v{
        {"baseline", PullVariant::VertexOrdered},
        {"sw-bdfs", PullVariant::SoftwareBdfs},
        {"tako", PullVariant::Hats},
        {"ideal", PullVariant::HatsIdeal}};
    return runPagerankPull(v.at(req.variant), cfg, sys);
}

RunMetrics
runNvmEntry(const WorkloadRequest &req, SystemConfig sys, std::string &)
{
    NvmTxConfig cfg;
    cfg.txBytes = req.txBytes;
    const std::map<std::string, NvmVariant> v{
        {"baseline", NvmVariant::Journaling},
        {"tako", NvmVariant::Tako},
        {"ideal", NvmVariant::TakoIdeal}};
    return runNvmTx(v.at(req.variant), cfg, sys);
}

RunMetrics
runPrimeProbeEntry(const WorkloadRequest &req, SystemConfig sys,
                   std::string &)
{
    PrimeProbeConfig cfg;
    cfg.seed = req.seed;
    PrimeProbeResult r =
        runPrimeProbe(req.variant == "tako", cfg, sys);
    r.metrics.extra["primeprobe.detected"] = r.detected ? 1 : 0;
    r.metrics.extra["primeprobe.bits_recovered"] = r.trueLeaks;
    return r.metrics;
}

RunMetrics
runAosSoaEntry(const WorkloadRequest &req, SystemConfig sys,
               std::string &)
{
    AosSoaConfig cfg;
    cfg.seed = req.seed;
    return runAosSoa(req.variant != "srrip", cfg, sys);
}

RunMetrics
runTraceEntry(const WorkloadRequest &req, SystemConfig sys,
              std::string &err)
{
    trace::TraceReplayResult res = trace::runTraceReplay(req.tracePath, sys);
    if (!res.ok) {
        err = res.error;
        return RunMetrics{};
    }
    return res.metrics;
}

} // namespace

const std::vector<WorkloadEntry> &
workloadRegistry()
{
    static const std::vector<WorkloadEntry> table = {
        {"decompress",
         {"baseline", "precompute", "ndc", "tako", "ideal"},
         runDecompressEntry},
        {"phi", {"baseline", "ub", "tako", "ideal"}, runPhiEntry},
        {"hats", {"baseline", "sw-bdfs", "tako", "ideal"}, runHatsEntry},
        {"nvm", {"baseline", "tako", "ideal"}, runNvmEntry},
        {"primeprobe", {"baseline", "tako"}, runPrimeProbeEntry},
        {"aossoa", {"srrip", "tako"}, runAosSoaEntry},
        {"trace", {}, runTraceEntry},
    };
    return table;
}

const WorkloadEntry *
findWorkload(const std::string &name)
{
    for (const WorkloadEntry &e : workloadRegistry()) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

} // namespace tako
