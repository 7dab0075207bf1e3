#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace elk::util {

void
warn(const std::string& msg)
{
    std::fprintf(stderr, "[elk WARN] %s\n", msg.c_str());
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
