/**
 * @file
 * Strict argv numbers, shared by takosim, takobench and takotracegen:
 * a value that is not wholly a number in range is a usage error (exit
 * 2), never a silent 0, a truncated prefix or a wrapped count.
 */

#ifndef TAKO_TOOLS_CLI_HH
#define TAKO_TOOLS_CLI_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace tako::cli
{

/** One tool's parser: a bad value prints "<tool>: <key> needs a number
 *  ..." and calls the tool's usage(2). */
class Numbers
{
  public:
    Numbers(const char *tool, void (*usage)(int))
        : tool_(tool), usage_(usage)
    {
    }

    /** Decimal, 0x hex or 0 octal in [@p lo, @p hi]: no sign, no
     *  space, nothing after the digits. */
    std::uint64_t
    num(const std::string &key, const std::string &v, std::uint64_t lo = 0,
        std::uint64_t hi = ~std::uint64_t{0}) const
    {
        errno = 0;
        char *end = nullptr;
        const unsigned long long n = std::strtoull(v.c_str(), &end, 0);
        check(key, v, std::isdigit(static_cast<unsigned char>(v[0])) &&
                          *end == '\0' && errno != ERANGE && n >= lo &&
                          n <= hi);
        return n;
    }

    /** A finite decimal number, with nothing before or after it. */
    double
    real(const std::string &key, const std::string &v) const
    {
        errno = 0;
        char *end = nullptr;
        const double x = std::strtod(v.c_str(), &end);
        check(key, v, !v.empty() &&
                          !std::isspace(static_cast<unsigned char>(v[0])) &&
                          *end == '\0' && errno != ERANGE &&
                          std::isfinite(x));
        return x;
    }

  private:
    void
    check(const std::string &key, const std::string &v, bool ok) const
    {
        if (ok)
            return;
        std::fprintf(stderr, "%s: %s needs a number in range, got '%s'\n\n",
                     tool_, key.c_str(), v.c_str());
        usage_(2);
        std::exit(2);
    }

    const char *tool_;
    void (*usage_)(int);
};

} // namespace tako::cli

#endif // TAKO_TOOLS_CLI_HH
