#include "obs/crash_handler.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>

#include "kernels/isa.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/manifest.hpp"
#include "obs/sigsafe.hpp"
#include "obs/watchdog.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>
#define MRQ_HAVE_CRASH_HANDLER 1
#endif

namespace mrq {
namespace obs {

#ifndef MRQ_HAVE_CRASH_HANDLER

bool
installCrashHandlers(const CrashHandlerConfig&)
{
    return false;
}

bool
installCrashHandlersFromEnv()
{
    return false;
}

bool
crashHandlersInstalled()
{
    return false;
}

void
setPostmortemManifest(const std::string&)
{
}

void
heartbeat()
{
}

void
faultInjectionPoint(const char* site, std::int64_t index)
{
    flightMark(site, index);
}

std::size_t
writePostmortemNow(int, const char*)
{
    return 0;
}

void
blockShutdownSignalsInThisThread()
{
}

#else // MRQ_HAVE_CRASH_HANDLER

namespace {

// ---- Static handler-path state ------------------------------------
// Everything the signal handler reads lives in pre-sized statics; the
// only mutations from handler context are the once-flags.

constexpr std::size_t kPathCap = 512;
constexpr std::size_t kManifestCap = 4096;
constexpr int kMaxFrames = 64;

char g_dump_path[kPathCap];
char g_usr1_path[kPathCap];
char g_git[128];
char g_isa[32];

/** Double-buffered pre-rendered manifest line: RunScope fills the
 *  inactive buffer under a mutex and flips the index; the handler
 *  reads the active buffer lock-free.  A torn read is impossible —
 *  the flip happens after the NUL is in place and a stale line is
 *  fine in a dump. */
std::mutex g_line_mutex;
char g_manifest_line[2][kManifestCap];
std::atomic<int> g_manifest_idx{-1};

std::atomic<int> g_installed{0};
std::atomic<int> g_dump_once{0};
std::atomic<int> g_graceful_once{0};
std::atomic<std::int64_t> g_heartbeat_ns{0};

// ---- Fault injection ----------------------------------------------

enum class FaultKind : int
{
    None = 0,
    Segv,
    Bus,
    Ill,
    Fpe,
    Abort,
    Terminate,
    Hang,
};

std::mutex g_cfg_mutex;
std::atomic<bool> g_fault_armed{false};
FaultKind g_fault_kind = FaultKind::None;
char g_fault_site[32];
std::int64_t g_fault_target = 0;
std::atomic<std::int64_t> g_fault_count{0};

std::int64_t
wallNowNs()
{
    timespec ts;
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
}

const char*
signalName(int sig)
{
    switch (sig) {
    case SIGSEGV:
        return "SIGSEGV";
    case SIGBUS:
        return "SIGBUS";
    case SIGILL:
        return "SIGILL";
    case SIGFPE:
        return "SIGFPE";
    case SIGABRT:
        return "SIGABRT";
    case SIGUSR1:
        return "SIGUSR1";
    case SIGINT:
        return "SIGINT";
    case SIGTERM:
        return "SIGTERM";
    }
    return "SIG?";
}

// ---- Dump writer (async-signal-safe) ------------------------------

/** Header + manifest lines.  @p sig <= 0 means non-signal
 *  reason (terminate, hang, usr1); @p addr only for faults. */
std::size_t
writeDumpPrefix(int fd, const char* reason, int sig, const void* addr,
                const char* exception_type)
{
    std::size_t lines = 0;
    {
        char line[640];
        sigsafe::Buf out{line, sizeof line};
        out.put("{\"type\": \"postmortem\", \"version\": ");
        out.putInt(kPostmortemVersion);
        out.put(", \"reason\": \"");
        out.putJson(reason);
        out.put("\", \"pid\": ");
        out.putInt(static_cast<long long>(::getpid()));
        out.put(", \"unix_time\": ");
        out.putInt(wallNowNs() / 1000000000);
        out.put(", \"thread\": \"");
        const char* tname = currentThreadFlightName();
        out.putJson(tname[0] != '\0' ? tname : "unnamed");
        out.put("\", \"git\": \"");
        out.putJson(g_git);
        out.put("\", \"isa\": \"");
        out.putJson(g_isa);
        out.put("\", \"peak_rss_kb\": ");
        out.putInt(sigsafe::peakRssKb());
        if (sig > 0) {
            out.put(", \"signal\": \"");
            out.put(signalName(sig));
            out.put("\", \"signo\": ");
            out.putInt(sig);
            out.put(", \"fault_addr\": \"");
            out.putHex(reinterpret_cast<unsigned long long>(addr));
            out.put("\"");
        }
        if (exception_type != nullptr) {
            out.put(", \"exception_type\": \"");
            out.putJson(exception_type);
            out.put("\"");
        }
        out.put("}\n");
        if (!sigsafe::writeAll(fd, out))
            return lines;
        ++lines;
    }
    const int mi = g_manifest_idx.load(std::memory_order_acquire);
    if (mi >= 0) {
        const char* m = g_manifest_line[mi];
        if (sigsafe::writeAll(fd, m, std::strlen(m)))
            ++lines;
    }
    return lines;
}

/** backtrace + dladdr frame lines; returns frames written.  dladdr
 *  has no malloc path on glibc/macOS and backtrace was warmed at
 *  install, so this stays handler-safe.  Symbols are left mangled —
 *  the demangler allocates; tools/mrq_postmortem.py prettifies. */
std::size_t
writeBacktrace(int fd)
{
    void* frames[kMaxFrames];
    const int n = ::backtrace(frames, kMaxFrames);
    std::size_t written = 0;
    for (int i = 0; i < n; ++i) {
        Dl_info info;
        const bool have = ::dladdr(frames[i], &info) != 0;
        char line[512];
        sigsafe::Buf out{line, sizeof line};
        out.put("{\"type\": \"frame\", \"index\": ");
        out.putInt(i);
        out.put(", \"pc\": \"");
        out.putHex(reinterpret_cast<unsigned long long>(frames[i]));
        out.put("\", \"symbol\": \"");
        out.putJson(have && info.dli_sname != nullptr ? info.dli_sname
                                                      : "?");
        out.put("\", \"object\": \"");
        out.putJson(have && info.dli_fname != nullptr ? info.dli_fname
                                                      : "?");
        out.put("\"}\n");
        if (!sigsafe::writeAll(fd, out))
            break;
        ++written;
    }
    return written;
}

std::size_t
writeDump(int fd, const char* reason, int sig, const void* addr,
          const char* exception_type)
{
    std::size_t lines =
        writeDumpPrefix(fd, reason, sig, addr, exception_type);
    if (heapInterpositionActive()) {
        // Heap digest: relaxed atomic loads only (handler-safe), so a
        // crash mid-allocation still reports coherent-enough totals.
        const detail::HeapDumpCounters h = detail::heapDumpCounters();
        char hline[384];
        sigsafe::Buf out{hline, sizeof hline};
        out.put("{\"type\": \"heap\", \"current_bytes\": ");
        out.putInt(h.currentBytes);
        out.put(", \"peak_bytes\": ");
        out.putInt(h.peakBytes);
        out.put(", \"alloc_count\": ");
        out.putInt(h.allocCount);
        out.put(", \"alloc_bytes\": ");
        out.putInt(h.allocBytes);
        out.put(", \"free_count\": ");
        out.putInt(h.freeCount);
        out.put(", \"free_bytes\": ");
        out.putInt(h.freeBytes);
        out.put(", \"samples\": ");
        out.putInt(h.samples);
        out.put(", \"guard_violations\": ");
        out.putInt(h.guardViolations);
        out.put("}\n");
        if (sigsafe::writeAll(fd, out))
            ++lines;
    }
    const std::size_t frames = writeBacktrace(fd);
    lines += frames;
    const std::size_t events = flightDrain(fd);
    lines += events;
    char line[128];
    sigsafe::Buf out{line, sizeof line};
    out.put("{\"type\": \"postmortem_end\", \"frames\": ");
    out.putUint(frames);
    out.put(", \"flight_events\": ");
    out.putUint(events);
    out.put("}\n");
    if (sigsafe::writeAll(fd, out))
        ++lines;
    return lines;
}

/** Open the artifact (stderr fallback); @p path may be "". */
int
openDumpFd(const char* path)
{
    if (path[0] == '\0')
        return 2;
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    return fd >= 0 ? fd : 2;
}

void
closeDumpFd(int fd)
{
    if (fd > 2) {
        ::fsync(fd);
        ::close(fd);
    }
}

void
stderrNote(const char* what, const char* path)
{
    char line[640];
    sigsafe::Buf out{line, sizeof line};
    out.put("mrq: ");
    out.put(what);
    if (path[0] != '\0') {
        out.put(" -> ");
        out.put(path);
    }
    out.put("\n");
    sigsafe::writeAll(2, out);
}

// ---- Signal handlers ----------------------------------------------

void
fatalHandler(int sig, siginfo_t* info, void*)
{
    if (g_dump_once.exchange(1, std::memory_order_acq_rel) == 0) {
        const void* addr =
            (sig == SIGSEGV || sig == SIGBUS) && info != nullptr
                ? info->si_addr
                : nullptr;
        const int fd = openDumpFd(g_dump_path);
        writeDump(fd, "signal", sig, addr, nullptr);
        closeDumpFd(fd);
        stderrNote("fatal signal, postmortem written", g_dump_path);
    }
    // Restore the default disposition and re-raise so the exit status
    // reflects the signal (wait4 callers, gtest death tests, shells).
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

void
usr1Handler(int sig, siginfo_t*, void*)
{
    (void)sig;
    const int saved_errno = errno;
    const int fd = openDumpFd(g_usr1_path);
    writeDump(fd, "usr1", 0, nullptr, nullptr);
    closeDumpFd(fd);
    stderrNote("on-demand postmortem written", g_usr1_path);
    errno = saved_errno;
}

void
gracefulHandler(int sig, siginfo_t*, void*)
{
    // Restore defaults first: a second Ctrl-C kills immediately.
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    if (g_graceful_once.exchange(1, std::memory_order_acq_rel) != 0) {
        ::raise(sig);
        return;
    }
    stderrNote("caught shutdown signal, flushing sinks", "");
    // Deliberately past the letter of async-signal-safety: flushing
    // JSONL sinks takes locks and allocates.  This is a best-effort
    // trade — the alternative is always losing the telemetry — and
    // the atomic tmp+rename writers mean a wedged flush can at worst
    // leave the previous file intact.
    flushActiveRunScope();
    std::_Exit(kGracefulExitCode);
}

[[noreturn]] void
terminateHandler()
{
    if (g_dump_once.exchange(1, std::memory_order_acq_rel) == 0) {
        const char* type_name = nullptr;
        if (std::type_info* t = abi::__cxa_current_exception_type())
            type_name = t->name();
        const int fd = openDumpFd(g_dump_path);
        writeDump(fd, "terminate", 0, nullptr, type_name);
        closeDumpFd(fd);
        stderrNote("std::terminate, postmortem written", g_dump_path);
    }
    // abort() raises SIGABRT; g_dump_once is already consumed so the
    // fatal handler just restores SIG_DFL and re-raises.
    std::abort();
}

// ---- Hang monitor --------------------------------------------------

/** Background heartbeat watcher.  Function-local singleton so the
 *  thread outlives every RunScope; the destructor joins at process
 *  exit (static destruction order is safe — the monitor only touches
 *  our own statics and the flight recorder's BSS). */
class HangMonitor
{
  public:
    static HangMonitor&
    instance()
    {
        static HangMonitor mon;
        return mon;
    }

    void
    arm(long after_ms, bool strict)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        afterMs_ = after_ms;
        strict_ = strict;
        fired_ = false;
        if (afterMs_ > 0 && !thread_.joinable())
            thread_ = std::thread([this] { loop(); });
        cv_.notify_all();
    }

    ~HangMonitor()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void
    loop()
    {
        blockShutdownSignalsInThisThread();
        setCurrentThreadName("mrq-watchdog");
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            long after = afterMs_;
            long poll = after > 0 ? after / 4 : 50;
            if (poll < 10)
                poll = 10;
            if (poll > 200)
                poll = 200;
            cv_.wait_for(lock, std::chrono::milliseconds(poll));
            if (stop_)
                return;
            after = afterMs_;
            if (after <= 0)
                continue;
            const std::int64_t last =
                g_heartbeat_ns.load(std::memory_order_relaxed);
            if (last == 0)
                continue; // Nothing beating yet: not a stall.
            const std::int64_t stall_ns = wallNowNs() - last;
            if (stall_ns <= after * 1000000)
                continue;
            if (strict_) {
                lock.unlock();
                const int fd = openDumpFd(g_dump_path);
                writeDump(fd, "hang", 0, nullptr, nullptr);
                closeDumpFd(fd);
                stderrNote("heartbeat stall, postmortem written; "
                           "strict mode exits 70",
                           g_dump_path);
                flushActiveRunScope();
                std::_Exit(kHangExitCode);
            }
            if (!fired_) {
                fired_ = true;
                lock.unlock();
                const int fd = openDumpFd(g_dump_path);
                writeDump(fd, "hang", 0, nullptr, nullptr);
                closeDumpFd(fd);
                stderrNote("heartbeat stall, postmortem written",
                           g_dump_path);
                lock.lock();
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::thread thread_;
    long afterMs_ = 0;
    bool strict_ = false;
    bool fired_ = false;
    bool stop_ = false;
};

// ---- Fault injection ----------------------------------------------

void
injectFault(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Segv: {
        // A small non-null misaligned-enough-to-be-unmapped address:
        // UBSan instruments plain null stores (and would report
        // instead of faulting), so poke address 8.
        volatile int* p = reinterpret_cast<volatile int*>(8);
        *p = 42;
        break;
    }
    case FaultKind::Bus:
        ::raise(SIGBUS);
        break;
    case FaultKind::Ill:
        ::raise(SIGILL);
        break;
    case FaultKind::Fpe:
        // raise() instead of a real divide: UBSan intercepts integer
        // division by zero before the CPU traps.
        ::raise(SIGFPE);
        break;
    case FaultKind::Abort:
        std::abort();
    case FaultKind::Terminate:
        std::terminate();
    case FaultKind::Hang: {
        // Stop heartbeating forever; the hang monitor (or an outer
        // timeout) decides what happens next.
        timespec ts{0, 50 * 1000 * 1000};
        for (;;)
            ::nanosleep(&ts, nullptr);
    }
    case FaultKind::None:
        break;
    }
}

/** Parse "<kind>@<site>:<n>" under g_cfg_mutex; disarms on any
 *  malformed spec. */
void
configureFault(const std::string& spec)
{
    std::lock_guard<std::mutex> lock(g_cfg_mutex);
    g_fault_armed.store(false, std::memory_order_release);
    g_fault_kind = FaultKind::None;
    g_fault_site[0] = '\0';
    g_fault_target = 0;
    g_fault_count.store(0, std::memory_order_relaxed);
    if (spec.empty())
        return;
    const std::size_t at = spec.find('@');
    const std::size_t colon = spec.rfind(':');
    if (at == std::string::npos || colon == std::string::npos ||
        colon <= at + 1) {
        std::fprintf(stderr, "mrq: ignoring malformed MRQ_FAULT '%s' "
                             "(want <kind>@<site>:<n>)\n",
                     spec.c_str());
        return;
    }
    const std::string kind = spec.substr(0, at);
    const std::string site = spec.substr(at + 1, colon - at - 1);
    FaultKind parsed = FaultKind::None;
    if (kind == "segv")
        parsed = FaultKind::Segv;
    else if (kind == "bus")
        parsed = FaultKind::Bus;
    else if (kind == "ill")
        parsed = FaultKind::Ill;
    else if (kind == "fpe")
        parsed = FaultKind::Fpe;
    else if (kind == "abort")
        parsed = FaultKind::Abort;
    else if (kind == "terminate")
        parsed = FaultKind::Terminate;
    else if (kind == "hang")
        parsed = FaultKind::Hang;
    char* end = nullptr;
    const long n = std::strtol(spec.c_str() + colon + 1, &end, 10);
    if (parsed == FaultKind::None || end == spec.c_str() + colon + 1 ||
        *end != '\0' || n < 0 || site.empty() ||
        site.size() >= sizeof g_fault_site) {
        std::fprintf(stderr, "mrq: ignoring malformed MRQ_FAULT '%s' "
                             "(want <kind>@<site>:<n>)\n",
                     spec.c_str());
        return;
    }
    g_fault_kind = parsed;
    std::memcpy(g_fault_site, site.c_str(), site.size() + 1);
    g_fault_target = n;
    g_fault_armed.store(true, std::memory_order_release);
}

void
copyPath(char* dst, std::size_t cap, const std::string& src)
{
    std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
    std::memcpy(dst, src.c_str(), n);
    dst[n] = '\0';
}

} // namespace

bool
installCrashHandlers(const CrashHandlerConfig& config)
{
    {
        std::lock_guard<std::mutex> lock(g_cfg_mutex);
        if (config.dumpDir.empty()) {
            g_dump_path[0] = '\0';
            g_usr1_path[0] = '\0';
        } else {
            std::error_code ec;
            std::filesystem::create_directories(config.dumpDir, ec);
            const std::string pid = std::to_string(::getpid());
            copyPath(g_dump_path, sizeof g_dump_path,
                     config.dumpDir + "/postmortem." + pid + ".jsonl");
            copyPath(g_usr1_path, sizeof g_usr1_path,
                     config.dumpDir + "/postmortem." + pid +
                         ".usr1.jsonl");
        }
        copyPath(g_git, sizeof g_git, buildGitDescribe());
        copyPath(g_isa, sizeof g_isa,
                 kernels::isaName(kernels::activeIsa()));
    }
    configureFault(config.fault);

    int expected = 0;
    if (g_installed.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel)) {
        // Warm backtrace(): glibc dlopens libgcc (with malloc) on the
        // first call, which must not happen inside a handler.
        void* warm[4];
        (void)::backtrace(warm, 4);

        static char altstack_mem[64 * 1024];
        stack_t altstack;
        altstack.ss_sp = altstack_mem;
        altstack.ss_size = sizeof altstack_mem;
        altstack.ss_flags = 0;
        ::sigaltstack(&altstack, nullptr);

        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sa.sa_sigaction = fatalHandler;
        for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
            ::sigaction(sig, &sa, nullptr);

        sa.sa_sigaction = usr1Handler;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
        ::sigaction(SIGUSR1, &sa, nullptr);

        sa.sa_sigaction = gracefulHandler;
        sa.sa_flags = SA_SIGINFO;
        ::sigaction(SIGINT, &sa, nullptr);
        ::sigaction(SIGTERM, &sa, nullptr);

        std::set_terminate(terminateHandler);

        if (currentThreadFlightName()[0] == '\0')
            setCurrentThreadName("main");
        flightMark("crash_handler.install");
    }

    if (config.hangAfterMs > 0)
        HangMonitor::instance().arm(config.hangAfterMs,
                                    config.strictHang);
    heartbeat();
    return true;
}

bool
installCrashHandlersFromEnv()
{
    // Opt-out knob: MRQ_CRASH_HANDLER=0/off leaves default
    // dispositions (a debugger or embedding process wants its own).
    if (const char* v = envValue("MRQ_CRASH_HANDLER", nullptr))
        if (!truthy(v))
            return false;
    CrashHandlerConfig cfg;
    cfg.dumpDir = envValue("MRQ_POSTMORTEM_DIR", "");
    cfg.fault = envValue("MRQ_FAULT", "");
    cfg.hangAfterMs = envLong("MRQ_HANG_AFTER", 0);
    cfg.strictHang = watchdogModeFromEnv() == WatchdogMode::strict;
    return installCrashHandlers(cfg);
}

bool
crashHandlersInstalled()
{
    return g_installed.load(std::memory_order_acquire) != 0;
}

void
setPostmortemManifest(const std::string& manifestLine)
{
    std::lock_guard<std::mutex> lock(g_line_mutex);
    const int next =
        (g_manifest_idx.load(std::memory_order_relaxed) + 1) & 1;
    std::size_t n = manifestLine.size() < kManifestCap - 2
                        ? manifestLine.size()
                        : kManifestCap - 2;
    std::memcpy(g_manifest_line[next], manifestLine.c_str(), n);
    if (n == 0 || g_manifest_line[next][n - 1] != '\n')
        g_manifest_line[next][n++] = '\n';
    g_manifest_line[next][n] = '\0';
    g_manifest_idx.store(next, std::memory_order_release);
}

void
heartbeat()
{
    g_heartbeat_ns.store(wallNowNs(), std::memory_order_relaxed);
}

void
faultInjectionPoint(const char* site, std::int64_t index)
{
    heartbeat();
    flightMark(site, index);
    if (!g_fault_armed.load(std::memory_order_acquire))
        return;
    // Armed is rare (tests/CI only), so the strcmp sits behind the
    // acquire load and costs nothing in production.
    if (std::strcmp(site, g_fault_site) != 0)
        return;
    // <n> counts visits of the site, not the index value: "epoch:2"
    // fires on the third epoch boundary the process reaches, which
    // stays deterministic across pipelines that interleave loops.
    const std::int64_t n =
        g_fault_count.fetch_add(1, std::memory_order_relaxed);
    if (n == g_fault_target) {
        std::fprintf(stderr, "mrq: MRQ_FAULT injecting at %s:%lld "
                             "(index %lld)\n",
                     site, static_cast<long long>(n),
                     static_cast<long long>(index));
        std::fflush(stderr);
        injectFault(g_fault_kind);
    }
}

std::size_t
writePostmortemNow(int fd, const char* reason)
{
    return writeDump(fd, reason, 0, nullptr, nullptr);
}

void
blockShutdownSignalsInThisThread()
{
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGUSR1);
    ::pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

#endif // MRQ_HAVE_CRASH_HANDLER

} // namespace obs
} // namespace mrq
