#include "trace/reader.hh"

namespace tako::trace
{

bool
TraceReader::stop()
{
    // The mapping stays for error reporting.
    cur_ = chunkEnd_ = nullptr;
    chunkLeft_ = 0;
    chunkIdx_ = file_.chunks().size();
    return false;
}

bool
TraceReader::fail(const std::string &msg)
{
    file_.fail(msg);
    return stop();
}

bool
TraceReader::open(const std::string &path)
{
    close();
    if (!file_.open(path) || !file_.walk(fileHeaderBytes))
        return false;
    timestamps_ = file_.flags() & flagTimestamps;
    rewind();
    return true;
}

void
TraceReader::close()
{
    file_.close();
    recordsRead_ = 0;
    timestamps_ = false;
    cur_ = chunkEnd_ = nullptr;
    chunkLeft_ = 0;
    chunkIdx_ = 0;
}

void
TraceReader::rewind()
{
    recordsRead_ = 0;
    chunkIdx_ = 0;
    cur_ = chunkEnd_ = nullptr;
    chunkLeft_ = 0;
    if (isOpen() && error().empty() && !file_.chunks().empty())
        enterChunk(0);
}

bool
TraceReader::enterChunk(std::size_t idx)
{
    const std::uint8_t *payload = file_.payload(idx);
    if (!payload)
        return stop();
    const chunkfile::Chunk &c = file_.chunks()[idx];
    chunkIdx_ = idx;
    cur_ = payload;
    chunkEnd_ = cur_ + c.payloadBytes;
    chunkLeft_ = c.count;
    prevAddr_ = 0;
    prevSize_ = 8;
    prevTenant_ = 0;
    prevTs_ = 0;
    return true;
}

bool
TraceReader::next(TraceRecord &out)
{
    while (chunkLeft_ == 0) {
        const std::size_t chunks = file_.chunks().size();
        if (!cur_ || chunkIdx_ + 1 >= chunks) {
            if (cur_ && chunkIdx_ + 1 >= chunks &&
                cur_ != chunkEnd_)
                return fail("chunk " + std::to_string(chunkIdx_) +
                            ": trailing payload bytes after the last "
                            "record");
            cur_ = nullptr;
            return false; // clean end (or sticky error already set)
        }
        if (cur_ != chunkEnd_)
            return fail("chunk " + std::to_string(chunkIdx_) +
                        ": trailing payload bytes after the last "
                        "record");
        if (!enterChunk(chunkIdx_ + 1))
            return false;
    }

    const std::uint8_t *p = cur_;
    if (p == chunkEnd_)
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": payload ends mid-record");
    const std::uint8_t head = *p++;
    if (head & headReserved)
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": reserved head bits set");
    const unsigned opBits = head & headOpMask;
    if (opBits >= numTraceOps)
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": invalid op " + std::to_string(opBits));
    if ((head & headHasTs) && !timestamps_)
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": timestamp on a record of an untimestamped file");

    std::uint64_t v;
    if (!getVarint(p, chunkEnd_, v))
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": truncated address varint");
    prevAddr_ += static_cast<Addr>(zigzagDecode(v));
    if (head & headHasSize) {
        if (!getVarint(p, chunkEnd_, v) || v == 0 ||
            v > 0xffffffffull)
            return fail("chunk " + std::to_string(chunkIdx_) +
                        ": bad size varint");
        prevSize_ = static_cast<std::uint32_t>(v);
    }
    if (head & headHasTenant) {
        if (!getVarint(p, chunkEnd_, v) || v > 0xffffffffull)
            return fail("chunk " + std::to_string(chunkIdx_) +
                        ": bad tenant varint");
        prevTenant_ = static_cast<std::uint32_t>(v);
    }
    if (head & headHasTs) {
        if (!getVarint(p, chunkEnd_, v))
            return fail("chunk " + std::to_string(chunkIdx_) +
                        ": truncated timestamp varint");
        prevTs_ += v;
    }

    out.addr = prevAddr_;
    out.size = prevSize_;
    out.op = static_cast<TraceOp>(opBits);
    out.tenant = prevTenant_;
    out.ts = timestamps_ ? prevTs_ : 0;
    cur_ = p;
    --chunkLeft_;
    ++recordsRead_;
    return true;
}

} // namespace tako::trace
