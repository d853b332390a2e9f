#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <vector>

#include "sim/stats.hh"

namespace tako
{

namespace
{

bool verboseFlag = true;

// Structured run log. One global sink mirrors every logging call site
// without threading a handle through the simulator; a mutex keeps lines
// whole when worker threads warn concurrently.
std::mutex jsonLogMutex;
std::FILE *jsonLogFile = nullptr;

void
jsonLogLine(const char *sev, const std::string &msg, const char *file,
            int line)
{
    std::vector<std::pair<std::string, std::string>> str = {
        {"sev", sev}, {"msg", msg}};
    std::vector<std::pair<std::string, double>> num;
    if (file) {
        str.emplace_back("file", file);
        num.emplace_back("line", line);
    }
    jsonLogEvent("log", str, num);
}

} // namespace

bool
setJsonLog(const std::string &path)
{
    std::lock_guard<std::mutex> lk(jsonLogMutex);
    if (jsonLogFile) {
        std::fclose(jsonLogFile);
        jsonLogFile = nullptr;
    }
    if (path.empty())
        return true;
    jsonLogFile = std::fopen(path.c_str(), "wb");
    return jsonLogFile != nullptr;
}

bool
jsonLogEnabled()
{
    std::lock_guard<std::mutex> lk(jsonLogMutex);
    return jsonLogFile != nullptr;
}

void
jsonLogEvent(
    const std::string &event,
    const std::vector<std::pair<std::string, std::string>> &strFields,
    const std::vector<std::pair<std::string, double>> &numFields)
{
    std::lock_guard<std::mutex> lk(jsonLogMutex);
    if (!jsonLogFile)
        return;
    std::ostringstream os;
    os << "{\"event\":";
    json::writeString(os, event);
    for (const auto &[k, v] : strFields) {
        os << ',';
        json::writeString(os, k);
        os << ':';
        json::writeString(os, v);
    }
    for (const auto &[k, v] : numFields) {
        os << ',';
        json::writeString(os, k);
        os << ':';
        json::writeNumber(os, v);
    }
    os << "}\n";
    const std::string out = os.str();
    std::fwrite(out.data(), 1, out.size(), jsonLogFile);
    // Line-buffered on purpose: the run log is the thing humans tail
    // while a long simulation spins, and the crash lines (panic/fatal)
    // must already be on disk when the process dies.
    std::fflush(jsonLogFile);
}

void
setVerbose(bool verbose)
{
    verboseFlag = verbose;
}

bool
verbose()
{
    return verboseFlag;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    std::string out;
    if (len > 0) {
        std::vector<char> buf(static_cast<size_t>(len) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, args);
        out.assign(buf.data(), static_cast<size_t>(len));
    }
    va_end(args);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    jsonLogLine("panic", msg, file, line);
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    jsonLogLine("fatal", msg, file, line);
    std::fprintf(stderr, "fatal: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    jsonLogLine("warn", msg, nullptr, 0);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    jsonLogLine("info", msg, nullptr, 0);
    if (verboseFlag)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace tako
