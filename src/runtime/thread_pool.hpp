/**
 * @file
 * Shared parallel execution substrate.
 *
 * A single persistent pool of worker threads serves every hot loop in
 * the library: the dense kernels in src/tensor, the group-quantization
 * loops in src/core, the per-image/per-channel loops in src/nn, and
 * the independent-tile sweeps in src/hw.  The pool size comes from the
 * MRQ_THREADS environment variable (default: hardware concurrency;
 * a value outside [1, kMaxPoolThreads] is rejected with a one-line
 * stderr diagnostic); tests and benches may change it at runtime with
 * resize().
 *
 * Determinism contract: work is split into chunks whose boundaries
 * depend only on the problem size and a caller-chosen grain — never on
 * the thread count.  parallelFor bodies write disjoint outputs, and
 * parallelReduce combines per-chunk partials sequentially in chunk
 * order, so every result is bit-identical at any thread count
 * (including the serial MRQ_THREADS=1 execution of the same chunks).
 *
 * Nesting: a parallel region entered from inside a worker (e.g. a
 * matmul called from another parallelFor body) runs inline
 * on the calling thread, so nested parallelism degrades gracefully
 * instead of deadlocking the pool.
 */

#ifndef MRQ_RUNTIME_THREAD_POOL_HPP
#define MRQ_RUNTIME_THREAD_POOL_HPP

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/function_ref.hpp"

namespace mrq {

/** Largest pool size MRQ_THREADS may request. */
constexpr long kMaxPoolThreads = 1024;

/**
 * Pool size for the MRQ_THREADS value @p value: the value itself when
 * it is a base-10 integer in [1, kMaxPoolThreads], else @p hardware
 * (at least 1).  An unset or empty value is not an error; any other
 * rejected value (garbage, 0, negative, too large, overflowing) sets
 * @p diagnostic to a one-line reason.  Pure: starts no threads.
 */
std::size_t poolThreadsFromEnv(const char* value, std::size_t hardware,
                               std::string* diagnostic);

/** Persistent worker pool; use through the parallelFor helpers below. */
class ThreadPool
{
  public:
    /** The process-wide pool (created on first use). */
    static ThreadPool& instance();

    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total executing threads (workers + the calling thread). */
    std::size_t threadCount() const { return threads_; }

    /**
     * Change the pool size (joins and respawns workers).  Intended for
     * tests and benches that compare thread counts; must not be called
     * from inside a parallel region.
     */
    void resize(std::size_t threads);

    /**
     * Execute body(chunk) for every chunk in [0, num_chunks).  Chunk c
     * runs on thread (c mod threadCount()) — static round-robin, no
     * work stealing — and the calling thread participates as thread 0.
     * Exceptions thrown by chunk bodies are rethrown on the caller
     * (first one wins).  Runs inline when the pool has one thread,
     * there is one chunk, or the caller is itself a pool worker.
     * @p body is a non-owning reference (dispatch never allocates);
     * run() returns only after every chunk completed, so binding a
     * caller-frame lambda is always safe.
     */
    void run(std::size_t num_chunks,
             FunctionRef<void(std::size_t)> body);

  private:
    ThreadPool();

    void start(std::size_t threads);
    void stopWorkers();
    void workerLoop(std::size_t index, std::uint64_t seen);
    void runInline(std::size_t num_chunks,
                   FunctionRef<void(std::size_t)> body);

    std::size_t threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable jobCv_;
    std::condition_variable doneCv_;
    FunctionRef<void(std::size_t)> job_;
    std::size_t jobChunks_ = 0;
    /** Caller's interned span-path id at dispatch (workers inherit
     *  it); 0 when tracing is off or no span is open. */
    int jobTracePathId_ = 0;
    /** Caller's no-alloc guard depth + innermost site at dispatch;
     *  workers enforce (not report) it for the job's chunks. */
    int jobGuardDepth_ = 0;
    const char* jobGuardSite_ = nullptr;
    /** steady_clock ns at job publish (queue-wait accounting). */
    std::int64_t jobPublishNs_ = 0;
    std::uint64_t jobSeq_ = 0;
    std::size_t doneCount_ = 0;
    std::exception_ptr error_;
    bool stop_ = false;
};

/**
 * Chunk geometry shared by the parallel helpers: boundaries depend
 * only on @p n and @p grain, never on the pool size.
 */
inline std::size_t
parallelChunks(std::size_t n, std::size_t grain)
{
    const std::size_t g = std::max<std::size_t>(1, grain);
    return (n + g - 1) / g;
}

/**
 * Grain (indices per chunk) for a loop whose per-index cost is about
 * @p work_per_index scalar operations: sized so one chunk amortizes
 * the dispatch overhead.  Depends only on the workload, keeping chunk
 * boundaries thread-count independent.
 */
inline std::size_t
parallelGrain(std::size_t work_per_index)
{
    constexpr std::size_t kTargetChunkWork = 1u << 16;
    const std::size_t w = std::max<std::size_t>(1, work_per_index);
    return std::max<std::size_t>(1, kTargetChunkWork / w);
}

/**
 * Parallel loop over [0, n) in chunks of @p grain indices: calls
 * body(begin, end) once per chunk.  The body must write only state
 * disjoint between chunks; under that contract results are
 * bit-identical at any thread count.  The body is passed by
 * non-owning reference — dispatching a capture-heavy lambda does not
 * heap-allocate, so loops under an obs::AllocGuard stay clean.
 */
inline void
parallelFor(std::size_t n, std::size_t grain,
            FunctionRef<void(std::size_t, std::size_t)> body)
{
    if (n == 0)
        return;
    const std::size_t g = std::max<std::size_t>(1, grain);
    const std::size_t chunks = parallelChunks(n, g);
    if (chunks == 1) {
        body(0, n);
        return;
    }
    ThreadPool::instance().run(chunks, [&](std::size_t c) {
        body(c * g, std::min(n, (c + 1) * g));
    });
}

/**
 * Deterministic parallel reduction over [0, n): maps each chunk to a
 * partial with map(begin, end) and folds the partials sequentially in
 * chunk order with combine(acc, partial).  Because the chunking and
 * the fold order are thread-count independent, the result is
 * bit-identical at any thread count (it may differ from a single
 * unchunked accumulation, which is fine — the chunked order IS the
 * defined order).
 */
template <typename T, typename MapFn, typename CombineFn>
T
parallelReduce(std::size_t n, std::size_t grain, T identity, MapFn map,
               CombineFn combine)
{
    if (n == 0)
        return identity;
    const std::size_t g = std::max<std::size_t>(1, grain);
    const std::size_t chunks = parallelChunks(n, g);
    if (chunks == 1)
        return combine(std::move(identity), map(std::size_t{0}, n));
    // Small reductions (every steady-state training-loop site: grad
    // norms, clip scans) keep their partials on the stack so the
    // whole fan-out is allocation-free under an obs::AllocGuard; only
    // outsized chunk counts fall back to the heap.
    constexpr std::size_t kInlinePartials = 32;
    if (chunks <= kInlinePartials) {
        std::array<std::optional<T>, kInlinePartials> partials;
        ThreadPool::instance().run(chunks, [&](std::size_t c) {
            partials[c].emplace(map(c * g, std::min(n, (c + 1) * g)));
        });
        T acc = std::move(identity);
        for (std::size_t c = 0; c < chunks; ++c)
            acc = combine(std::move(acc), std::move(*partials[c]));
        return acc;
    }
    std::vector<T> partials(chunks, identity);
    ThreadPool::instance().run(chunks, [&](std::size_t c) {
        partials[c] = map(c * g, std::min(n, (c + 1) * g));
    });
    T acc = std::move(identity);
    for (std::size_t c = 0; c < chunks; ++c)
        acc = combine(std::move(acc), std::move(partials[c]));
    return acc;
}

} // namespace mrq

#endif // MRQ_RUNTIME_THREAD_POOL_HPP
