#include "proc_stats.hpp"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define MRQ_HAVE_RUSAGE 1
#endif

namespace mrq {
namespace obs {

ProcStats
readProcStats()
{
    ProcStats s;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long long v = 0;
        while (std::fgets(line, sizeof line, f) != nullptr)
            if (std::strncmp(line, "VmHWM:", 6) == 0 &&
                std::sscanf(line + 6, " %lld", &v) == 1)
                s.peakRssKb = static_cast<std::int64_t>(v);
        std::fclose(f);
    }
#ifdef MRQ_HAVE_RUSAGE
    // getrusage also knows peak RSS (KiB on Linux) — the fallback when
    // /proc was unreadable.
    struct rusage ru;
    if (s.peakRssKb < 0 && getrusage(RUSAGE_SELF, &ru) == 0 &&
        ru.ru_maxrss > 0)
        s.peakRssKb = static_cast<std::int64_t>(ru.ru_maxrss);
#endif
    return s;
}

} // namespace obs
} // namespace mrq
