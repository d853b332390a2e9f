#include "sim/chunk_file.hh"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace tako::chunkfile
{

bool
Reader::fail(const std::string &msg)
{
    if (error_.empty())
        error_ = std::string(fmt_.name) + " read: " + msg;
    return false;
}

bool
Reader::reject(const std::string &msg)
{
    fail("'" + path_ + "': " + msg);
    close();
    return false;
}

bool
Reader::open(const std::string &path)
{
    close();
    error_.clear();
    path_ = path;

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open '" + path + "'");
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return fail("cannot stat '" + path + "'");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ < fmt_.headerBytes) {
        ::close(fd);
        size_ = 0;
        return fail("'" + path + "' is shorter than a file header");
    }
    void *map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
        data_ = static_cast<const std::uint8_t *>(map);
        mapped_ = true;
    } else {
        // mmap can fail on exotic filesystems; fall back to a copy.
        heap_.resize(size_);
        std::size_t got = 0;
        while (got < size_) {
            const ssize_t n =
                ::pread(fd, heap_.data() + got, size_ - got,
                        static_cast<off_t>(got));
            if (n <= 0)
                break;
            got += static_cast<std::size_t>(n);
        }
        if (got != size_) {
            ::close(fd);
            close();
            return fail("cannot read '" + path + "'");
        }
        data_ = heap_.data();
    }
    ::close(fd);

    if (std::memcmp(data_, fmt_.magic.data(), fmt_.magic.size()) != 0)
        return reject(std::string("bad magic (not a ") + fmt_.name +
                      " file)");
    const std::uint32_t version = get32(data_ + 8);
    if (version != fmt_.version)
        return reject("format version " + std::to_string(version) +
                      " (this build reads v" +
                      std::to_string(fmt_.version) + ")");
    flags_ = get32(data_ + 12);
    if (flags_ & ~fmt_.knownFlags)
        return reject(strprintf("unknown flag bits 0x%x",
                                flags_ & ~fmt_.knownFlags));
    count_ = get64(data_ + fmt_.countOffset);
    return true;
}

bool
Reader::walk(std::size_t off)
{
    const std::string item = fmt_.item;
    if (count_ == unpatchedCount)
        return reject("unpatched " + item + " count (unclosed writer?)");

    // Headers only: payload CRCs wait for payload(). The walk runs to
    // the end of the file, so the chunk list never trusts a header
    // count for its size.
    std::uint64_t items = 0;
    auto at = [this] { return "chunk " + std::to_string(chunks_.size()); };
    while (off != size_) {
        if (off + chunkHeaderBytes > size_)
            return reject("truncated at " + at() +
                          " header (file ends early)");
        const std::uint8_t *h = data_ + off;
        if (get32(h) != fmt_.chunkMagic)
            return reject(at() + ": bad magic");
        Chunk c;
        c.count = get32(h + 4);
        c.payloadBytes = get32(h + 8);
        c.crc = get32(h + 12);
        const std::uint64_t firstIndex = get64(h + 16);
        c.payloadOff = off + chunkHeaderBytes;
        if (c.count == 0)
            return reject(at() + ": empty chunk");
        if (firstIndex != items)
            return reject(at() + ": firstIndex " +
                          std::to_string(firstIndex) +
                          " != running count " + std::to_string(items));
        if (c.payloadOff + c.payloadBytes > size_)
            return reject("truncated in " + at() +
                          " payload (file ends early)");
        items += c.count;
        off = c.payloadOff + c.payloadBytes;
        chunks_.push_back(c);
    }
    if (items != count_)
        return reject("header says " + std::to_string(count_) + " " +
                      item + "s, chunks hold " + std::to_string(items));
    if (fmt_.chunkCountOffset) {
        const std::uint64_t n = get64(data_ + fmt_.chunkCountOffset);
        if (n != chunks_.size())
            return reject("header says " + std::to_string(n) +
                          " chunks, file holds " +
                          std::to_string(chunks_.size()));
    }
    return true;
}

const std::uint8_t *
Reader::payload(std::size_t idx)
{
    Chunk &c = chunks_[idx];
    const std::uint8_t *p = data_ + c.payloadOff;
    if (!c.crcChecked) {
        const std::uint32_t got = crc32(p, c.payloadBytes);
        if (got != c.crc) {
            fail("chunk " + std::to_string(idx) +
                 ": CRC mismatch (stored " + std::to_string(c.crc) +
                 ", computed " + std::to_string(got) + ")");
            return nullptr;
        }
        c.crcChecked = true;
    }
    return p;
}

void
Reader::close()
{
    if (data_ && mapped_)
        ::munmap(const_cast<std::uint8_t *>(data_), size_);
    data_ = nullptr;
    size_ = 0;
    mapped_ = false;
    heap_.clear();
    heap_.shrink_to_fit();
    flags_ = 0;
    count_ = 0;
    chunks_.clear();
}

Writer::~Writer()
{
    if (file_)
        std::fclose(file_);
}

void
Writer::setError(const std::string &msg)
{
    if (error_.empty())
        error_ = std::string(fmt_.name) + " write: " + msg;
}

bool
Writer::open(const std::string &path, std::vector<std::uint8_t> head,
             std::uint32_t flags)
{
    if (file_) {
        setError("open() on an already-open writer");
        return false;
    }
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        setError("cannot create '" + path + "'");
        return false;
    }
    error_.clear();
    count_ = chunks_ = 0;

    std::memcpy(head.data(), fmt_.magic.data(), fmt_.magic.size());
    put32(head.data() + 8, fmt_.version);
    put32(head.data() + 12, flags);
    put64(head.data() + fmt_.countOffset, unpatchedCount);
    if (fmt_.chunkCountOffset)
        put64(head.data() + fmt_.chunkCountOffset, unpatchedCount);
    if (std::fwrite(head.data(), 1, head.size(), file_) != head.size()) {
        setError("header write failed");
        return false;
    }
    return true;
}

bool
Writer::writeChunk(std::uint32_t count,
                   const std::vector<std::uint8_t> &payload)
{
    if (!ok())
        return false;
    std::uint8_t hdr[chunkHeaderBytes];
    put32(hdr, fmt_.chunkMagic);
    put32(hdr + 4, count);
    put32(hdr + 8, static_cast<std::uint32_t>(payload.size()));
    put32(hdr + 12, crc32(payload.data(), payload.size()));
    put64(hdr + 16, count_);
    if (std::fwrite(hdr, 1, sizeof(hdr), file_) != sizeof(hdr) ||
        std::fwrite(payload.data(), 1, payload.size(), file_) !=
            payload.size()) {
        setError("chunk write failed");
        return false;
    }
    count_ += count;
    ++chunks_;
    return true;
}

bool
Writer::close()
{
    if (!file_) {
        setError("close() without open()");
        return false;
    }
    auto patch = [this](std::size_t off, std::uint64_t v) {
        std::uint8_t bytes[8];
        put64(bytes, v);
        if (std::fseek(file_, static_cast<long>(off), SEEK_SET) != 0 ||
            std::fwrite(bytes, 1, sizeof(bytes), file_) != sizeof(bytes))
            setError("header patch failed");
    };
    if (error_.empty())
        patch(fmt_.countOffset, count_);
    if (error_.empty() && fmt_.chunkCountOffset)
        patch(fmt_.chunkCountOffset, chunks_);
    const bool flushOk = std::fclose(file_) == 0;
    file_ = nullptr;
    if (!flushOk)
        setError("final flush failed");
    return error_.empty();
}

} // namespace tako::chunkfile
