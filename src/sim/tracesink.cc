#include "sim/tracesink.hh"

#include <sstream>

#include "sim/logging.hh"
#include "sim/stats.hh" // json::writeString

namespace tako::trace
{

bool
parseSpanMask(const std::string &spec, std::uint32_t &mask,
              std::string &bad)
{
    mask = 0;
    std::size_t pos = 0;
    while (true) {
        const std::size_t comma = spec.find(',', pos);
        const std::string tok = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (tok == "all")
            mask |= kAllSpans;
        else if (tok == "mem")
            mask |= kMemSpans;
        else if (tok == "engine")
            mask |= kEngineSpans;
        else if (tok == "dram")
            mask |= kDramSpans;
        else {
            bad = tok;
            return false;
        }
        if (comma == std::string::npos)
            return true;
        pos = comma + 1;
    }
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream &os, std::uint32_t mask)
    : os_(os)
{
    if (mask & kMemSpans)
        kinds_ |= recordBit(RecordKind::MemDone);
    if (mask & kEngineSpans)
        kinds_ |= recordBit(RecordKind::CbRetire);
    if (mask & kDramSpans)
        kinds_ |= recordBit(RecordKind::DramRead) |
                  recordBit(RecordKind::DramWrite);
    os_ << "[";
}

void
ChromeTraceWriter::record(const Record &r)
{
    if (!(kinds_ & recordBit(r.kind)))
        return;
    switch (r.kind) {
      case RecordKind::MemDone:
        ensureTrack(0, "memory", r.tile, strprintf("tile%d", r.tile));
        completeEvent(
            "mem", r.name, 0, r.tile, r.w[0], r.tick - r.w[0],
            strprintf("{\"addr\":\"%#llx\",\"engine\":%s,"
                      "\"cache\":%llu,\"noc\":%llu,\"lock_wait\":%llu,"
                      "\"dram\":%llu,\"callback_wait\":%llu}",
                      (unsigned long long)r.addr,
                      r.has(Record::kEngine) ? "true" : "false",
                      (unsigned long long)r.w[1],
                      (unsigned long long)r.w[2],
                      (unsigned long long)r.w[3],
                      (unsigned long long)r.w[4],
                      (unsigned long long)r.w[5]));
        break;
      case RecordKind::CbRetire: {
        // CallbackKind order: Miss, Eviction, Writeback.
        static const char *const kCallbackNames[] = {
            "onMiss", "onEviction", "onWriteback"};
        ensureTrack(1, "engines", r.tile, strprintf("tile%d", r.tile));
        completeEvent(
            "engine", kCallbackNames[r.op % 3], 1, r.tile, r.w[0],
            r.tick - r.w[0],
            strprintf("{\"addr\":\"%#llx\",\"morph\":\"%s\","
                      "\"addr_wait\":%llu,\"dispatch\":%llu,"
                      "\"xlate\":%llu,\"body\":%llu}",
                      (unsigned long long)r.addr, r.name,
                      (unsigned long long)r.w[2],
                      (unsigned long long)r.w[3],
                      (unsigned long long)r.w[4],
                      (unsigned long long)r.w[5]));
        break;
      }
      case RecordKind::DramRead:
      case RecordKind::DramWrite:
        ensureTrack(2, "dram", r.tile, strprintf("ctrl%d", r.tile));
        completeEvent("dram",
                      r.kind == RecordKind::DramRead ? "read" : "write",
                      2, r.tile, r.tick, r.w[0],
                      strprintf("{\"addr\":\"%#llx\"}",
                                (unsigned long long)r.addr));
        break;
      default:
        break;
    }
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    close();
}

void
ChromeTraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    os_ << "\n]\n";
    os_.flush();
}

void
ChromeTraceWriter::event(const char *ph, const char *cat, const char *name,
                         int pid, int tid, Tick ts, Tick dur, bool has_dur,
                         const std::string &args_json)
{
    panic_if(closed_, "trace event after close()");
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    os_ << "{\"ph\":\"" << ph << "\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"ts\":" << ts;
    if (has_dur)
        os_ << ",\"dur\":" << dur;
    if (cat)
        os_ << ",\"cat\":\"" << cat << "\"";
    os_ << ",\"name\":";
    json::writeString(os_, name);
    if (!args_json.empty())
        os_ << ",\"args\":" << args_json;
    os_ << "}";
    ++events_;
}

void
ChromeTraceWriter::completeEvent(const char *cat, const char *name,
                                 int pid, int tid, Tick ts, Tick dur,
                                 const std::string &args_json)
{
    event("X", cat, name, pid, tid, ts, dur, true, args_json);
}

void
ChromeTraceWriter::ensureTrack(int pid, const char *process, int tid,
                               const std::string &thread)
{
    if (processes_.insert(pid).second) {
        event("M", nullptr, "process_name", pid, 0, 0, 0, false,
              std::string("{\"name\":\"") + process + "\"}");
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pid))
         << 32) |
        static_cast<std::uint32_t>(tid);
    if (tracks_.insert(key).second) {
        std::ostringstream args;
        args << "{\"name\":";
        json::writeString(args, thread);
        args << "}";
        event("M", nullptr, "thread_name", pid, tid, 0, 0, false,
              args.str());
    }
}

} // namespace tako::trace
