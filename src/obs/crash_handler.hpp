/**
 * @file
 * Crash / hang post-mortem diagnostics: async-signal-safe handlers
 * for the fatal signals (SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT)
 * and a std::terminate hook that write a versioned post-mortem
 * artifact before the process dies, so a run that falls over mid-epoch
 * leaves behind what the flight recorder saw.
 *
 * The artifact is JSONL (one object per line) written with raw
 * write(2) into `MRQ_POSTMORTEM_DIR/postmortem.<pid>.jsonl` (stderr
 * when no directory is configured):
 *
 *   {"type": "postmortem", "version": 1, "reason": ..., ...}  header —
 *       pid, faulting-thread name, git describe, active ISA, peak RSS;
 *       for signals also the name/number and fault address.
 *   {"type": "manifest", ...}   the active run's manifest (if a
 *       RunScope published one via setPostmortemManifest).
 *   {"type": "frame", ...}      one per backtrace frame, innermost
 *       first, symbolized via dladdr (no demangling — the demangler
 *       allocates).
 *   {"type": "flight", ...}     the flight-recorder drain.
 *   {"type": "postmortem_end", "frames": N, "flight_events": N}
 *
 * Handler-path rules (enforced by the HandlerPathAllocatesNoHeap
 * test): pre-allocated static buffers only, no malloc, no stdio, no
 * locks, no C++ exceptions.  backtrace() is warmed at install time
 * because glibc lazily loads libgcc (with malloc) on first call.
 * The run-manifest line is pre-rendered from normal context into
 * double-buffered static storage so the handler only reads.
 *
 * Beyond crashes:
 *  - SIGUSR1 dumps on demand (to `...usr1.jsonl`) and returns — poke a
 *    live run to see where it is.
 *  - A heartbeat monitor (MRQ_HANG_AFTER=<ms>) watches
 *    obs::heartbeat() calls from the training loop; a stall dumps
 *    with reason "hang", and under MRQ_WATCHDOG=strict then flushes
 *    sinks and exits 70 (the watchdog's fatal code).
 *  - SIGINT/SIGTERM get a graceful path: flush every live RunScope,
 *    exit 75 — Ctrl-C'd runs keep telemetry.
 *  - MRQ_FAULT=<kind>@<site>:<n> (kind: segv, bus, ill, fpe, abort,
 *    terminate, hang; site: epoch, rung, bench_rep, ...) injects a
 *    deterministic fault at the n-th visit of a matching
 *    faultInjectionPoint(), so tests and CI exercise every dump path.
 */

#ifndef MRQ_OBS_CRASH_HANDLER_HPP
#define MRQ_OBS_CRASH_HANDLER_HPP

#include <cstdint>
#include <string>

namespace mrq {
namespace obs {

/** Post-mortem artifact schema version (header "version" field). */
constexpr int kPostmortemVersion = 1;

/** Exit code of the SIGINT/SIGTERM graceful-shutdown path. */
constexpr int kGracefulExitCode = 75;

/** Exit code when the strict-mode hang monitor gives up (matches the
 *  watchdog's fatal-alert exit code). */
constexpr int kHangExitCode = 70;

struct CrashHandlerConfig
{
    /** Dump directory; empty -> dumps go to stderr. */
    std::string dumpDir;
    /** Fault-injection spec "<kind>@<site>:<n>"; empty -> disarmed. */
    std::string fault;
    /** Heartbeat-stall threshold in ms; 0 -> hang monitor off. */
    long hangAfterMs = 0;
    /** Stall behaviour: dump + exit kHangExitCode (strict) vs dump
     *  once + keep running. */
    bool strictHang = false;
};

/**
 * Install the signal handlers, terminate hook, graceful-shutdown path
 * and (when configured) the hang monitor.  Idempotent for the OS-level
 * hooks; the config (dump dir, fault spec, hang threshold) is replaced
 * on every call.  Returns false when the platform lacks the needed
 * primitives.
 */
bool installCrashHandlers(const CrashHandlerConfig& config);

/**
 * installCrashHandlers() from MRQ_POSTMORTEM_DIR / MRQ_FAULT /
 * MRQ_HANG_AFTER / MRQ_WATCHDOG.  Setting MRQ_CRASH_HANDLER to a
 * non-truthy value opts out entirely (returns false, installs
 * nothing).
 */
bool installCrashHandlersFromEnv();

/** True once installCrashHandlers() has installed the OS hooks. */
bool crashHandlersInstalled();

/** Pre-render the active run's manifest JSON line for dumps.  Called
 *  by RunScope; cheap, thread-safe, crash-time reads are lock-free. */
void setPostmortemManifest(const std::string& manifestLine);

/** Liveness beacon for the hang monitor: call from the training loop
 *  at batch boundaries.  Near-free (one relaxed store). */
void heartbeat();

/**
 * Fault-injection + progress site.  Always records a flight mark and
 * a heartbeat; when MRQ_FAULT matches @p site and its visit counter
 * reaches the configured index, injects the configured fault.  Cost
 * when disarmed: the flight record plus two relaxed atomics.
 */
void faultInjectionPoint(const char* site, std::int64_t index = -1);

/**
 * Async-signal-safe dump of the current state (header, manifest,
 * backtrace from here, flight drain) to @p fd with the given
 * header reason.  The SIGUSR1/hang paths use it; tests call it
 * directly to assert the handler path allocates nothing.  Returns the
 * number of lines written.
 */
std::size_t writePostmortemNow(int fd, const char* reason);

/** Block SIGINT/SIGTERM/SIGUSR1 in the calling thread so they are
 *  always delivered to the main thread (worker threads call this
 *  first thing). */
void blockShutdownSignalsInThisThread();

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_CRASH_HANDLER_HPP
