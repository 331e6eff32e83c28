#include "sim/log.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace ih
{

namespace
{

/** Format @p fmt / @p ap into a string. */
std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out;
    if (n > 0) {
        std::vector<char> buf(static_cast<size_t>(n) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
        out.assign(buf.data(), static_cast<size_t>(n));
    }
    va_end(ap2);
    return out;
}

void
emit(const char *tag, const char *fmt, va_list ap)
{
    std::string msg = vstrprintf(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("warn", fmt, ap);
    va_end(ap);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vstrprintf(fmt, ap);
    va_end(ap);
    return out;
}

} // namespace ih
