/**
 * @file
 * Flight recorder: an always-on, lock-free, per-thread black-box ring
 * holding the last N observability events of the process — progress
 * marks (epoch/rung/bench-rep boundaries), closed trace spans, metric
 * checkpoints (series points) and watchdog alerts — in statically
 * allocated, bounded memory with drop-oldest semantics.
 *
 * The point of the recorder is the moment the process dies: the crash
 * handler (obs/crash_handler.hpp) drains every ring into the
 * post-mortem artifact with flightDrain(), which is async-signal-safe
 * — it touches only the pre-allocated rings, relaxed atomic loads and
 * raw write(2) via obs/sigsafe.hpp.  Nothing on the drain path can
 * allocate, lock or call stdio.
 *
 * Threading model (mirrors the PR 4 trace-ring): each thread owns at
 * most one ring slot, acquired under a small mutex on its first
 * record and labelled by setCurrentThreadName(); records after that
 * are single-writer and lock-free (one relaxed load, one event store,
 * one release store of the write counter).  When a thread exits its
 * slot is retired — the events stay drainable until the slot is
 * reclaimed by a new thread once all free slots are used.  Reading
 * event payloads (flightDrain, flightEventCount) is only exact from
 * serial points or post-crash; thread *names* are mutex-guarded and
 * may be listed live.
 *
 * Knobs: MRQ_FLIGHT=0/off disables recording (it is on by default —
 * the steady-state cost is a few tens of ns at epoch-cadence record
 * sites, gated <2% by the telemetry_overhead bench);
 * MRQ_FLIGHT_RING=N shrinks the logical per-thread capacity below the
 * compiled kFlightRingCap.
 */

#ifndef MRQ_OBS_FLIGHT_RECORDER_HPP
#define MRQ_OBS_FLIGHT_RECORDER_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace mrq {
namespace obs {

/** What one flight event describes. */
enum class FlightKind : std::uint8_t
{
    Mark = 0,   ///< Progress mark (epoch, rung, bench rep, install).
    Span = 1,   ///< Closed trace span (a=arg, b=path id, v=ns).
    Metric = 2, ///< Metric checkpoint (a=step, v=value).
    Alert = 3,  ///< Watchdog alert (name="severity:rule", a=batch).
};

/** Compile-time bounds of the static ring storage. */
constexpr std::size_t kFlightMaxThreads = 64;
constexpr std::size_t kFlightRingCap = 512;
constexpr std::size_t kFlightNameCap = 40;
constexpr std::size_t kFlightThreadNameCap = 32;

/** True when recording is on (default; MRQ_FLIGHT=0/off disables). */
bool flightEnabled();

/** Override recording (tests, bench); returns the previous value. */
bool setFlightEnabled(bool on);

/** Logical per-thread capacity (MRQ_FLIGHT_RING, clamped to the
 *  compiled kFlightRingCap). */
std::size_t flightRingCapacity();

/** Override the logical capacity (tests; serial code only — call
 *  flightReset() right after).  Returns the previous value. */
std::size_t setFlightRingCapacity(std::size_t cap);

/** Record one event into this thread's ring (drop-oldest).  Lock-free
 *  after the thread's first record; a no-op when disabled.  @p name
 *  is copied (truncating at kFlightNameCap - 1). */
void flightRecord(FlightKind kind, const char* name,
                  std::int64_t a = -1, std::int64_t b = -1,
                  double v = 0.0);

/** Convenience progress mark. */
void flightMark(const char* name, std::int64_t a = -1);

/**
 * Name the calling thread: forwards to pthread_setname_np (so the
 * name shows up in gdb/top/core files) and labels this thread's
 * flight-ring slot (so dumps can name it).
 * Registers a slot even while recording is disabled.
 */
void setCurrentThreadName(const char* name);

/** This thread's flight name ("" when never named).  Async-signal-
 *  safe: reads one plain thread_local pointer. */
const char* currentThreadFlightName();

/** Names of every live registered thread (mutex-guarded; safe to call
 *  from any thread while threads come and go). */
std::vector<std::string> flightThreadNames();

/** Total events ever recorded across all slots (exact from serial
 *  points only). */
std::uint64_t flightEventCount();

/** Events lost to drop-oldest wrap-around plus records dropped
 *  because every slot was taken. */
std::uint64_t flightDroppedEvents();

/** Clear every ring (serial code only; test hook).  Live threads keep
 *  their slots and names; retired slots are freed. */
void flightReset();

/**
 * Async-signal-safe drain: writes every retained event as one JSONL
 * `{"type": "flight", ...}` line to @p fd using raw write(2).
 * Returns the number of events written.
 */
std::size_t flightDrain(int fd);

/** Stable lower-case kind name ("mark", "span", "metric", "alert"). */
const char* flightKindName(FlightKind kind);

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_FLIGHT_RECORDER_HPP
