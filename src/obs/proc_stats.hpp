/**
 * @file
 * Process-level resource snapshot: peak RSS, read from /proc/self
 * with a getrusage() fallback when /proc is unavailable (non-Linux,
 * restricted mounts).
 *
 * These values are inherently non-deterministic, so they must never
 * reach a deterministic sink (JSONL metrics, bench `values`/`metrics`
 * maps).  They are rendered only by the bench harness's noise-gated
 * `resources` map.
 */

#ifndef MRQ_OBS_PROC_STATS_HPP
#define MRQ_OBS_PROC_STATS_HPP

#include <cstdint>

namespace mrq {
namespace obs {

/** One point-in-time view of the process; -1 = field unavailable. */
struct ProcStats
{
    std::int64_t peakRssKb = -1; ///< Peak resident set (VmHWM).
};

/** Read the current process stats (never throws; missing sources
 *  leave fields at their -1 sentinels). */
ProcStats readProcStats();

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_PROC_STATS_HPP
