/**
 * @file
 * Run manifests and the RunScope guard that ties a pipeline run to
 * the metrics sinks.
 *
 * A manifest records what was run — task, seed, ladder, options — and
 * what ran it: git describe, dirty-tree flag, compiler id/version,
 * build type and sanitizer flags, so a metrics file, timeline or
 * bench trajectory is attributable to an exact binary.  It
 * deliberately excludes anything non-deterministic or thread-count
 * dependent (timestamps, hostnames, MRQ_THREADS): the whole JSONL
 * file must be byte-identical for a fixed seed at any pool size.
 *
 * RunScope is the single integration point pipelines use: on entry it
 * resets the registry and enables collection when any sink is live
 * (MRQ_METRICS_OUT set, tracing on, or verbose requested); on exit it
 * flushes every live sink — JSONL metrics, the MRQ_TRACE_OUT
 * timeline, the heap profile, the inspector records, the verbose
 * summary — then
 * restores the previous enable/verbose state.  With no sink live it
 * enables nothing, keeping instrumented hot loops at their disabled
 * near-zero cost.
 *
 * Scopes register on a process-wide stack so flushActiveRunScope()
 * can persist a run that is about to die without stack unwinding
 * (the watchdog's strict-mode std::exit path).
 */

#ifndef MRQ_OBS_MANIFEST_HPP
#define MRQ_OBS_MANIFEST_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mrq {
namespace obs {

/** Self-description of one run (first line of its JSONL block). */
struct RunManifest
{
    std::string run;        ///< e.g. "classifier.multires".
    std::uint64_t seed = 0;
    std::string gitDescribe; ///< From the build; see buildGitDescribe().

    // Build provenance (filled by applyBuildProvenance when empty;
    // emitted only when non-empty so hand-built manifests round-trip
    // unchanged).
    std::string gitDirty;  ///< "0" clean, "1" uncommitted changes.
    std::string compiler;  ///< e.g. "GNU 13.2.0".
    std::string buildType; ///< e.g. "Release".
    std::string sanitizer; ///< e.g. "-fsanitize=thread", or "none".
    std::string isa;       ///< Active kernel ISA, e.g. "avx2".

    /** Ordered option/ladder entries, e.g. {"ladder", "a8b2,a20b3"}. */
    std::vector<std::pair<std::string, std::string>> entries;

    void
    add(std::string key, std::string value)
    {
        entries.emplace_back(std::move(key), std::move(value));
    }
};

/** `git describe` of the tree this library was configured from. */
const char* buildGitDescribe();

/** Fill every empty provenance field (gitDescribe, gitDirty,
 *  compiler, buildType, sanitizer, isa) from the build's stamps and
 *  the kernel substrate's resolved dispatch. */
void applyBuildProvenance(RunManifest* manifest);

/** Render the manifest as a single JSON object line. */
std::string manifestJson(const RunManifest& manifest);

/** Scoped run: reset-and-enable on entry, flush sinks on exit. */
class RunScope
{
  public:
    /**
     * @param manifest Run description written ahead of the metrics.
     * @param verbose  Route obs::logf() to stdout and print the
     *                 end-of-run summary.
     */
    RunScope(RunManifest manifest, bool verbose);
    ~RunScope();

    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;

    /**
     * Write every live sink now (idempotent).  Normally invoked by
     * the destructor; flushActiveRunScope() calls it early when the
     * process is about to exit without unwinding.
     */
    void flush();

  private:
    RunManifest manifest_;
    bool verbose_ = false;
    bool prevEnabled_ = false;
    bool prevVerbose_ = false;
    bool flushed_ = false;
};

/** Flush every RunScope currently on the stack (innermost first).
 *  Safe to call with none active. */
void flushActiveRunScope();

/**
 * Process-wide count of sink writes that failed during RunScope
 * flushes (metrics, timeline or inspector files that could not be
 * written).  Lets drivers propagate a non-zero exit status instead of
 * silently losing telemetry: `return sinkFlushFailures() == 0 ? 0 : 1`.
 */
std::int64_t sinkFlushFailures();

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_MANIFEST_HPP
