#include "prof/profiler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tako::prof
{

const char *
Profiler::kindName(unsigned kind)
{
    switch (kind) {
      case 0:
        return "onMiss";
      case 1:
        return "onEviction";
      case 2:
        return "onWriteback";
    }
    return "unknown";
}

Profiler::Profiler(const ProfilerConfig &cfg)
    : cfg_(cfg), l1_("l1"), l2_("l2"), l3_("l3"), occ_(cfg.tiles)
{
    panic_if(cfg.tiles == 0, "profiler over zero tiles");
    l1StackCore_.reserve(cfg.tiles);
    l1StackEng_.reserve(cfg.tiles);
    l2Stack_.reserve(cfg.tiles);
    for (unsigned t = 0; t < cfg.tiles; ++t) {
        l1StackCore_.push_back(l1_.addStack(cfg.l1Lines));
        l1StackEng_.push_back(l1_.addStack(cfg.engL1Lines));
        l2Stack_.push_back(l2_.addStack(cfg.l2Lines));
    }
    l3_.addStack(cfg.l3Lines); // banked but shared: one stack
}

void
Profiler::occDelta(int tile, Tick now, int delta)
{
    EngineOcc &o = occ_[tile];
    if (o.levelCycles.size() <= o.cur)
        o.levelCycles.resize(o.cur + 1, 0);
    o.levelCycles[o.cur] += now - o.lastChange;
    o.lastChange = now;
    o.cur = static_cast<unsigned>(static_cast<int>(o.cur) + delta);
    o.peak = std::max(o.peak, o.cur);
    if (o.timelineTicks.size() < kTimelineCap) {
        o.timelineTicks.push_back(now);
        o.timelineOcc.push_back(o.cur);
    } else {
        ++o.droppedTransitions;
    }
}

void
Profiler::record(const Record &r)
{
    const bool hit = r.has(Record::kHit);
    // A level's heat spans its largest array; smaller arrays' sets
    // share the low indices.
    auto heat = [&r](std::vector<std::uint64_t> &h) {
        if (h.size() < r.w[1])
            h.resize(r.w[1], 0);
        ++h[r.w[0]];
    };
    switch (r.kind) {
      case RecordKind::L1Lookup:
        heat(setHeat_[0]);
        l1_.access(r.has(Record::kEngine) ? l1StackEng_[r.tile]
                                          : l1StackCore_[r.tile],
                   r.addr, hit);
        break;
      case RecordKind::L2Lookup:
        heat(setHeat_[1]);
        if (!r.has(Record::kPrefetch))
            l2_.access(l2Stack_[r.tile], r.addr, hit);
        break;
      case RecordKind::L3Lookup:
        heat(setHeat_[2]);
        l3_.access(0, r.addr, hit);
        break;
      case RecordKind::CbEnqueue:
        occDelta(r.tile, r.tick, +1);
        break;
      case RecordKind::CbRetire: {
        occDelta(r.tile, r.tick, -1);
        CallbackAgg &a = callbacks_[{r.tile, r.name, r.op}];
        ++a.count;
        a.admissionWait += r.w[1];
        a.addrWait += r.w[2];
        a.dispatch += r.w[3];
        a.xlate += r.w[4];
        a.body += r.w[5];
        a.total += r.tick - r.w[0];
        break;
      }
      default:
        break;
    }
}

void
Profiler::setNocLinks(std::vector<std::uint64_t> busyCycles,
                      std::vector<std::uint64_t> messages)
{
    linkBusy_ = std::move(busyCycles);
    linkMsgs_ = std::move(messages);
}

void
Profiler::setNocTotals(std::uint64_t messages, std::uint64_t localMessages)
{
    nocMessages_ = messages;
    nocLocalMessages_ = localMessages;
}

void
Profiler::finalize(Tick end, StatsRegistry &stats)
{
    if (finalized_)
        return;
    finalized_ = true;
    end_ = end;
    for (EngineOcc &o : occ_) {
        if (o.levelCycles.size() <= o.cur)
            o.levelCycles.resize(o.cur + 1, 0);
        o.levelCycles[o.cur] += end - o.lastChange;
        o.lastChange = end;
    }

    std::uint64_t cbCount = 0;
    Tick cbBody = 0, cbTotal = 0, cbAdmission = 0;
    for (const auto &[key, a] : callbacks_) {
        cbCount += a.count;
        cbBody += a.body;
        cbTotal += a.total;
        cbAdmission += a.admissionWait;
    }
    unsigned occPeak = 0;
    for (const EngineOcc &o : occ_)
        occPeak = std::max(occPeak, o.peak);
    std::uint64_t busyTotal = 0, busyMax = 0;
    for (std::uint64_t b : linkBusy_) {
        busyTotal += b;
        busyMax = std::max(busyMax, b);
    }

    auto set = [&stats](const std::string &name, const char *unit,
                        const char *desc, double v) {
        stats.counter(name, unit, desc) += v;
    };
    set("prof.cb.count", "callbacks", "retired callbacks (all kinds)",
        static_cast<double>(cbCount));
    set("prof.cb.cycles.body", "cycles",
        "total cycles in callback bodies",
        static_cast<double>(cbBody));
    set("prof.cb.cycles.total", "cycles",
        "total trigger-to-retire callback cycles",
        static_cast<double>(cbTotal));
    set("prof.cb.cycles.admission_wait", "cycles",
        "total cycles callbacks waited for a buffer entry",
        static_cast<double>(cbAdmission));
    set("prof.engine.occupancy.peak", "callbacks",
        "max concurrent callbacks on any engine",
        static_cast<double>(occPeak));
    set("prof.noc.link.busy_total", "flit-cycles",
        "sum of busy cycles over all mesh links",
        static_cast<double>(busyTotal));
    set("prof.noc.link.busy_max", "flit-cycles",
        "busy cycles of the hottest mesh link",
        static_cast<double>(busyMax));
    for (const MissClassifier *mc : {&l1_, &l2_, &l3_}) {
        const std::string p = "prof.miss." + mc->level() + ".";
        set(p + "compulsory", "misses", "first-touch misses",
            static_cast<double>(mc->counts().compulsory));
        set(p + "capacity", "misses",
            "misses with reuse distance >= cache lines",
            static_cast<double>(mc->counts().capacity));
        set(p + "conflict", "misses",
            "misses with reuse distance < cache lines",
            static_cast<double>(mc->counts().conflict));
    }
}

void
Profiler::writeMissClass(std::ostream &os, const MissClassifier &mc) const
{
    const MissClassifier::Counts &c = mc.counts();
    os << "{\"accesses\": " << c.accesses << ", \"hits\": " << c.hits
       << ", \"misses\": " << c.misses
       << ", \"compulsory\": " << c.compulsory
       << ", \"capacity\": " << c.capacity
       << ", \"conflict\": " << c.conflict
       << ", \"reuse_hist\": {\"first_touch\": " << mc.firstTouches()
       << ", \"log2_buckets\": [";
    for (unsigned i = 0; i < MissClassifier::kReuseBuckets; ++i)
        os << (i ? ", " : "") << mc.reuseHist()[i];
    os << "]}}";
}

std::vector<std::string>
Profiler::foldedLines() const
{
    std::vector<std::string> lines;
    for (const auto &[key, a] : callbacks_) {
        const auto &[tile, morph, kind] = key;
        const std::string base = "tile" + std::to_string(tile) + ";" +
                                 morph + ";" + kindName(kind) + ";";
        const std::pair<const char *, Tick> phases[] = {
            {"admission_wait", a.admissionWait},
            {"addr_wait", a.addrWait},
            {"dispatch", a.dispatch},
            {"xlate", a.xlate},
            {"body", a.body},
        };
        for (const auto &[phase, cycles] : phases) {
            if (cycles > 0)
                lines.push_back(base + phase + " " +
                                std::to_string(cycles));
        }
    }
    return lines;
}

void
Profiler::writeJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &header) const
{
    os << "{\n  \"schema\": \"takoprof-v1\"";
    for (const auto &[k, v] : header) {
        os << ",\n  ";
        json::writeString(os, k);
        os << ": ";
        json::writeString(os, v);
    }
    os << ",\n  \"end_cycle\": " << end_;

    os << ",\n  \"callbacks\": [";
    bool first = true;
    for (const auto &[key, a] : callbacks_) {
        const auto &[tile, morph, kind] = key;
        os << (first ? "\n" : ",\n") << "    {\"morph\": ";
        first = false;
        json::writeString(os, morph);
        os << ", \"kind\": \"" << kindName(kind) << "\", \"tile\": " << tile
           << ", \"count\": " << a.count
           << ", \"cycles\": {\"admission_wait\": " << a.admissionWait
           << ", \"addr_wait\": " << a.addrWait
           << ", \"dispatch\": " << a.dispatch
           << ", \"xlate\": " << a.xlate << ", \"body\": " << a.body
           << ", \"total\": " << a.total << "}}";
    }
    os << "\n  ]";

    os << ",\n  \"engines\": [";
    for (std::size_t t = 0; t < occ_.size(); ++t) {
        const EngineOcc &o = occ_[t];
        os << (t ? ",\n" : "\n") << "    {\"tile\": " << t
           << ", \"peak_occupancy\": " << o.peak
           << ", \"occupancy_cycles\": [";
        for (std::size_t i = 0; i < o.levelCycles.size(); ++i)
            os << (i ? ", " : "") << o.levelCycles[i];
        os << "], \"timeline\": {\"ticks\": [";
        for (std::size_t i = 0; i < o.timelineTicks.size(); ++i)
            os << (i ? ", " : "") << o.timelineTicks[i];
        os << "], \"occupancy\": [";
        for (std::size_t i = 0; i < o.timelineOcc.size(); ++i)
            os << (i ? ", " : "") << o.timelineOcc[i];
        os << "], \"dropped\": " << o.droppedTransitions << "}}";
    }
    os << "\n  ]";

    os << ",\n  \"miss_class\": {\n    \"l1\": ";
    writeMissClass(os, l1_);
    os << ",\n    \"l2\": ";
    writeMissClass(os, l2_);
    os << ",\n    \"l3\": ";
    writeMissClass(os, l3_);
    os << "\n  }";

    os << ",\n  \"set_heat\": {";
    for (int l = 0; l < 3; ++l) {
        const std::vector<std::uint64_t> &heat = setHeat_[l];
        os << (l ? ",\n" : "\n") << "    \"l" << l + 1 << "\": [";
        for (std::size_t i = 0; i < heat.size(); ++i)
            os << (i ? ", " : "") << heat[i];
        os << "]";
    }
    os << "\n  }";

    // Per-directed-link utilization plus the per-tile 2D heatmap
    // (row-major, dim_y rows of dim_x, summing each tile's 4 outgoing
    // links) that plot_results.py renders directly.
    static const char *dirs[4] = {"E", "W", "N", "S"};
    os << ",\n  \"noc\": {\"dim_x\": " << cfg_.meshX
       << ", \"dim_y\": " << cfg_.meshY
       << ", \"messages\": " << nocMessages_
       << ", \"local_messages\": " << nocLocalMessages_ << ", \"links\": [";
    first = true;
    for (std::size_t li = 0; li < linkBusy_.size(); ++li) {
        os << (first ? "\n" : ",\n") << "    {\"tile\": " << li / 4
           << ", \"dir\": \"" << dirs[li % 4]
           << "\", \"busy_cycles\": " << linkBusy_[li]
           << ", \"messages\": "
           << (li < linkMsgs_.size() ? linkMsgs_[li] : 0) << "}";
        first = false;
    }
    os << "\n  ], \"tile_busy\": [";
    for (unsigned y = 0; y < cfg_.meshY; ++y) {
        os << (y ? ",\n    " : "\n    ") << "[";
        for (unsigned x = 0; x < cfg_.meshX; ++x) {
            const std::size_t tile = std::size_t(y) * cfg_.meshX + x;
            std::uint64_t busy = 0;
            for (unsigned d = 0; d < 4; ++d) {
                if (tile * 4 + d < linkBusy_.size())
                    busy += linkBusy_[tile * 4 + d];
            }
            os << (x ? ", " : "") << busy;
        }
        os << "]";
    }
    os << "\n  ]}";

    os << ",\n  \"folded\": [";
    const std::vector<std::string> folded = foldedLines();
    for (std::size_t i = 0; i < folded.size(); ++i) {
        os << (i ? ",\n    " : "\n    ");
        json::writeString(os, folded[i]);
    }
    os << "\n  ]\n}\n";
}

void
Profiler::writeFolded(std::ostream &os) const
{
    for (const std::string &line : foldedLines())
        os << line << "\n";
}

} // namespace tako::prof
