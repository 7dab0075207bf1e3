#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace elk::util {

namespace {

LogLevel g_level = LogLevel::kWarn;

const char*
level_name(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO";
      case LogLevel::kWarn: return "WARN";
      case LogLevel::kError: return "ERROR";
    }
    return "?";
}

}  // namespace

void
set_log_level(LogLevel level)
{
    g_level = level;
}

LogLevel
log_level()
{
    return g_level;
}

void
log_message(LogLevel level, const std::string& msg)
{
    if (static_cast<int>(level) < static_cast<int>(g_level)) {
        return;
    }
    std::fprintf(stderr, "[elk %s] %s\n", level_name(level), msg.c_str());
}

void
fatal(const char* msg)
{
    std::fprintf(stderr, "[elk FATAL] %s\n", msg);
    std::exit(1);
}

void
fatal(const std::string& msg)
{
    fatal(msg.c_str());
}

void
panic(const char* msg)
{
    std::fprintf(stderr, "[elk PANIC] %s\n", msg);
    std::abort();
}

void
panic(const std::string& msg)
{
    panic(msg.c_str());
}

}  // namespace elk::util
