#include "runtime/thread_pool.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hpp"
#include "obs/crash_handler.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace mrq {

namespace {

/** Set while the current thread is executing chunks of a job. */
thread_local bool t_inside_parallel = false;

/**
 * Timeline id for this executor's "pool.chunk" events, interned under
 * the current (inherited) span path; 0 when export is off.  Chunk
 * events go straight to the ring — no TraceSpan — so they appear on
 * the timeline without inserting a "pool.chunk" level into the span
 * paths user code records inside chunk bodies.
 */
int
chunkEventPathId()
{
    if (!obs::traceExportEnabled())
        return 0;
    return obs::internTracePathChild("pool.chunk");
}

// Pool activity metrics.  The counters are recorded at the top of
// run() — before the inline-vs-parallel branch — so their values
// depend only on chunk geometry, never on the pool size, and stay
// byte-identical in the JSONL sink at any MRQ_THREADS.  The timings
// (queue wait, per-executor busy time whose min/max spread is the
// chunk imbalance) are wall-clock and surface in the summary sink
// only.
obs::Counter c_regions("runtime.pool.regions");
obs::Counter c_chunks("runtime.pool.chunks");
obs::TimingStat t_queue_wait("runtime.pool.queue_wait");
obs::TimingStat t_executor_busy("runtime.pool.executor_busy");

std::size_t
configuredThreads()
{
    std::string diagnostic;
    const std::size_t t =
        poolThreadsFromEnv(obs::envValue("MRQ_THREADS", nullptr),
                           std::thread::hardware_concurrency(),
                           &diagnostic);
    if (!diagnostic.empty())
        std::fprintf(stderr, "mrq: %s\n", diagnostic.c_str());
    return t;
}

} // namespace

std::size_t
poolThreadsFromEnv(const char* value, std::size_t hardware,
                   std::string* diagnostic)
{
    const std::size_t fallback = std::max<std::size_t>(1, hardware);
    if (value == nullptr || value[0] == '\0')
        return fallback;
    const long v = obs::parseLong(value, 0);
    if (v >= 1 && v <= kMaxPoolThreads)
        return static_cast<std::size_t>(v);
    if (diagnostic != nullptr)
        *diagnostic = "MRQ_THREADS=" + std::string(value) +
                      " is not an integer in [1, " +
                      std::to_string(kMaxPoolThreads) + "]; using " +
                      std::to_string(fallback) + " threads";
    return fallback;
}

ThreadPool&
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool()
{
    start(configuredThreads());
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

void
ThreadPool::start(std::size_t threads)
{
    threads_ = std::max<std::size_t>(1, threads);
    workers_.reserve(threads_ - 1);
    // Workers must ignore every job sequence number issued before they
    // were spawned: jobSeq_ survives resize(), and a fresh worker that
    // started at seen = 0 would mistake the last finished job (already
    // cleared to job_ == nullptr) for a new one.  No job can be active
    // here — start() runs only from the constructor and resize().
    const std::uint64_t seen = jobSeq_;
    for (std::size_t i = 1; i < threads_; ++i)
        workers_.emplace_back([this, i, seen] { workerLoop(i, seen); });
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    jobCv_.notify_all();
    for (std::thread& w : workers_)
        w.join();
    workers_.clear();
    stop_ = false;
}

void
ThreadPool::resize(std::size_t threads)
{
    require(!t_inside_parallel,
            "ThreadPool::resize: cannot resize from inside a parallel "
            "region");
    stopWorkers();
    start(threads);
}

void
ThreadPool::runInline(std::size_t num_chunks,
                      FunctionRef<void(std::size_t)> body)
{
    const int chunk_path = chunkEventPathId();
    for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::int64_t c0 = chunk_path != 0 ? obs::nowNs() : 0;
        body(c);
        if (chunk_path != 0)
            obs::traceExportSpan(chunk_path, c0, obs::nowNs(),
                                 static_cast<std::int64_t>(c));
    }
}

void
ThreadPool::run(std::size_t num_chunks,
                FunctionRef<void(std::size_t)> body)
{
    if (num_chunks == 0)
        return;
    c_regions.add(1);
    c_chunks.add(static_cast<std::int64_t>(num_chunks));
    // Nested regions and the single-thread pool execute the same chunk
    // sequence inline; chunk boundaries are unchanged, so the results
    // match the parallel execution bit for bit.
    if (t_inside_parallel || threads_ == 1 || num_chunks == 1) {
        runInline(num_chunks, body);
        return;
    }

    const bool obs_on = obs::metricsEnabled();
    // Workers inherit the caller's span path (as an interned id, valid
    // on any thread) so spans opened inside chunk bodies nest under
    // the span that launched the loop.
    const int trace_path_id = obs::currentTracePathId();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = body;
        jobChunks_ = num_chunks;
        jobTracePathId_ = trace_path_id;
        jobGuardDepth_ = obs::currentAllocGuardDepth();
        jobGuardSite_ = obs::currentAllocGuardSite();
        jobPublishNs_ = obs_on ? obs::nowNs() : 0;
        doneCount_ = 0;
        error_ = nullptr;
        ++jobSeq_;
    }
    jobCv_.notify_all();

    // The caller participates as thread 0 of the round-robin.
    const std::int64_t busy0 = obs_on ? obs::nowNs() : 0;
    const int chunk_path = chunkEventPathId();
    t_inside_parallel = true;
    for (std::size_t c = 0; c < num_chunks; c += threads_) {
        const std::int64_t c0 = chunk_path != 0 ? obs::nowNs() : 0;
        try {
            body(c);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
        if (chunk_path != 0)
            obs::traceExportSpan(chunk_path, c0, obs::nowNs(),
                                 static_cast<std::int64_t>(c));
    }
    t_inside_parallel = false;
    if (obs_on)
        t_executor_busy.record(obs::nowNs() - busy0);

    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [&] { return doneCount_ == threads_ - 1; });
    job_ = FunctionRef<void(std::size_t)>();
    jobChunks_ = 0;
    jobTracePathId_ = 0;
    jobGuardDepth_ = 0;
    jobGuardSite_ = nullptr;
    if (error_) {
        std::exception_ptr err = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop(std::size_t index, std::uint64_t seen)
{
    // Shutdown signals stay with the main thread; the worker gets a
    // name for dumps and external tools.
    obs::blockShutdownSignalsInThisThread();
    char name[16];
    std::snprintf(name, sizeof name, "mrq-pool-%zu", index);
    obs::setCurrentThreadName(name);
    for (;;) {
        FunctionRef<void(std::size_t)> body;
        std::size_t chunks = 0;
        int trace_path_id = 0;
        int guard_depth = 0;
        const char* guard_site = nullptr;
        std::int64_t publish_ns = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            jobCv_.wait(lock, [&] { return stop_ || jobSeq_ != seen; });
            if (stop_)
                return;
            seen = jobSeq_;
            body = job_;
            chunks = jobChunks_;
            trace_path_id = jobTracePathId_;
            guard_depth = jobGuardDepth_;
            guard_site = jobGuardSite_;
            publish_ns = jobPublishNs_;
        }

        const bool obs_on = obs::metricsEnabled();
        if (obs_on && publish_ns != 0)
            t_queue_wait.record(obs::nowNs() - publish_ns);
        const std::int64_t busy0 = obs_on ? obs::nowNs() : 0;
        {
            obs::InheritedTracePath trace_guard(trace_path_id);
            obs::InheritedAllocGuard alloc_guard(guard_depth,
                                                 guard_site);
            const int chunk_path = chunkEventPathId();
            t_inside_parallel = true;
            for (std::size_t c = index; c < chunks; c += threads_) {
                const std::int64_t c0 =
                    chunk_path != 0 ? obs::nowNs() : 0;
                try {
                    body(c);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    if (!error_)
                        error_ = std::current_exception();
                }
                if (chunk_path != 0)
                    obs::traceExportSpan(chunk_path, c0, obs::nowNs(),
                                         static_cast<std::int64_t>(c));
            }
            t_inside_parallel = false;
        }
        if (obs_on)
            t_executor_busy.record(obs::nowNs() - busy0);

        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++doneCount_;
        }
        doneCv_.notify_one();
    }
}

} // namespace mrq
