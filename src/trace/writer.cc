#include "trace/writer.hh"

namespace tako::trace
{

const char *
traceOpName(TraceOp op)
{
    switch (op) {
      case TraceOp::Load: return "load";
      case TraceOp::Store: return "store";
      case TraceOp::StreamLoad: return "stream-load";
      case TraceOp::StreamStore: return "stream-store";
      case TraceOp::AtomicAdd: return "atomic-add";
      case TraceOp::AtomicSwap: return "atomic-swap";
    }
    return "?";
}

bool
TraceWriter::open(const std::string &path, Options opt)
{
    if (opt.chunkRecords == 0)
        opt.chunkRecords = 1;
    if (!file_.open(path, std::vector<std::uint8_t>(fileHeaderBytes),
                    opt.timestamps ? flagTimestamps : 0))
        return false;
    opt_ = opt;
    records_ = 0;
    chunkRecords_ = 0;
    payload_.clear();
    prevAddr_ = 0;
    prevSize_ = 8;
    prevTenant_ = 0;
    prevTs_ = lastTs_ = 0;
    return true;
}

void
TraceWriter::append(const TraceRecord &rec)
{
    if (!file_.ok())
        return; // sticky error; close() reports it
    if (opt_.timestamps && rec.ts < lastTs_) {
        file_.setError("non-monotonic timestamp at record " +
                       std::to_string(records_));
        return;
    }

    std::uint8_t head = static_cast<std::uint8_t>(rec.op) & headOpMask;
    const bool sendSize = rec.size != prevSize_;
    const bool sendTenant = rec.tenant != prevTenant_;
    if (sendSize)
        head |= headHasSize;
    if (sendTenant)
        head |= headHasTenant;
    if (opt_.timestamps)
        head |= headHasTs;
    payload_.push_back(head);
    putVarint(payload_, zigzagEncode(static_cast<std::int64_t>(
                            rec.addr - prevAddr_)));
    if (sendSize)
        putVarint(payload_, rec.size);
    if (sendTenant)
        putVarint(payload_, rec.tenant);
    if (opt_.timestamps)
        putVarint(payload_, rec.ts - prevTs_);

    prevAddr_ = rec.addr;
    prevSize_ = rec.size;
    prevTenant_ = rec.tenant;
    prevTs_ = rec.ts;
    lastTs_ = rec.ts;
    ++records_;
    ++chunkRecords_;
    if (chunkRecords_ >= opt_.chunkRecords)
        flushChunk();
}

void
TraceWriter::flushChunk()
{
    if (chunkRecords_ == 0 || !file_.writeChunk(chunkRecords_, payload_))
        return;
    chunkRecords_ = 0;
    payload_.clear();
    // Chunks decode independently: reset the delta context.
    prevAddr_ = 0;
    prevSize_ = 8;
    prevTenant_ = 0;
    prevTs_ = 0;
}

bool
TraceWriter::close()
{
    flushChunk();
    return file_.close();
}

} // namespace tako::trace
