/**
 * @file
 * The benchmark's four fixed-work workloads.
 *
 * A workload is built and warmed up by its constructor (everything
 * setup_s counts), then driven one timed step at a time.  Every step
 * does the same work, or walks a fixed rung rotation, and its inputs
 * come from the seed alone, so a run's work is fixed by
 * (workload, seed, step count) and never by the host's speed.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/** Construction parameters shared by every workload. */
struct WorkloadParams
{
    std::uint64_t seed = 1;
    /** Tiny inputs for the benchmark's own tests. */
    bool smoke = false;
    /** Per-layer spans land here when non-null and armed. */
    Tracer* tracer = nullptr;
    /** Span whose body is stretched by delayNs (attribution
     *  self-test); empty for none. */
    std::string delaySpan;
    std::int64_t delayNs = 0;
    /** Directory for files the workload writes (deployment image). */
    std::string workDir = ".";
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Images (or tokens) one step processes. */
    virtual std::size_t samplesPerStep() const = 0;

    /** Steps in one full input/rung rotation. */
    virtual std::size_t rotation() const = 0;

    /** Run timed step @p i (data preparation included). */
    virtual void step(std::size_t i) = 0;

    /**
     * Check the outputs of the step just run; untimed.
     * @return False, with a reason in @p why, when an output is wrong.
     */
    virtual bool check(std::size_t i, std::string* why) = 0;

    /** Damage the last step's output (failure-count self-test). */
    virtual void corruptLastOutput() = 0;

    /** Digest of the state and outputs the determinism contract
     *  covers; identical across runs, tracing and pool sizes. */
    virtual std::uint64_t digest() = 0;

    /** Exact and host-timed per-layer values the workload measures
     *  itself (MACs per sample, simulator counts, image build/load). */
    virtual std::map<std::string, double> layerValues() = 0;
};

/** Pool threads a workload runs with on a host with @p nproc CPUs. */
std::size_t workloadThreads(const std::string& name, std::size_t nproc);

/**
 * Consecutive steps the step-time percentiles take as one unit: enough
 * for about 50 ms, because the VM's steal clock ticks every 10 ms and
 * a shorter unit cannot have its steal taken out (4 for the LSTM's
 * 13 ms steps, 1 elsewhere).
 */
std::size_t workloadStepGroup(const std::string& name);

/** Timed steps per --seconds of run length (fixed work per run). */
double workloadStepsPerSecond(const std::string& name);

/** Build, set up and warm up a workload; throws on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadParams& params);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
