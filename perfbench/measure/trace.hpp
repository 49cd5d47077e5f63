/**
 * @file
 * Benchmark-side span recorder.
 *
 * Spans are opened and closed by the benchmark around its calls into the
 * library, always from the main thread, so the recorder needs no
 * synchronization.  Each span keeps its name, parent, step, start and
 * end, plus the process heap allocation totals at both edges (the
 * library's interposed operator new keeps them always on).  Spans stay
 * in memory; main.cpp writes them once the run ends.  A disarmed
 * recorder, or none at all, makes every Span a no-op.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/heap_profiler.hpp"

namespace perfbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One closed (or still open, end == 0) span. */
struct SpanRecord
{
    int name = 0;
    int parent = -1; ///< Index into Tracer::spans(), -1 for a root.
    int step = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t allocBytes = 0; ///< Heap bytes allocated inside.
    std::int64_t allocCount = 0; ///< Heap allocations inside.
};

class Tracer
{
  public:
    /** Intern a span name. */
    int
    id(const std::string& name)
    {
        auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        const int id = static_cast<int>(names_.size());
        names_.push_back(name);
        ids_.emplace(name, id);
        return id;
    }

    void setArmed(bool armed) { armed_ = armed; }
    bool armed() const { return armed_; }
    void setStep(int step) { step_ = step; }

    int
    open(int name)
    {
        const mrq::obs::HeapStats heap = mrq::obs::heapStatsSnapshot();
        SpanRecord r;
        r.name = name;
        r.parent = stack_.empty() ? -1 : stack_.back();
        r.step = step_;
        r.allocBytes = -heap.allocBytes;
        r.allocCount = -heap.allocCount;
        const int index = static_cast<int>(spans_.size());
        spans_.push_back(r);
        stack_.push_back(index);
        spans_.back().startNs = nowNs();
        return index;
    }

    void
    close(int index)
    {
        const std::int64_t end = nowNs();
        const mrq::obs::HeapStats heap = mrq::obs::heapStatsSnapshot();
        SpanRecord& r = spans_[static_cast<std::size_t>(index)];
        r.endNs = end;
        r.allocBytes += heap.allocBytes;
        r.allocCount += heap.allocCount;
        stack_.pop_back();
    }

    const std::vector<std::string>& names() const { return names_; }
    const std::vector<SpanRecord>& spans() const { return spans_; }

  private:
    std::vector<std::string> names_;
    std::unordered_map<std::string, int> ids_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
    int step_ = -1;
    bool armed_ = false;
};

/** RAII span; a no-op unless @p tracer is non-null and armed and
 *  @p name is a real id (negative ids mark spans a workload skips). */
class Span
{
  public:
    Span(Tracer* tracer, int name)
    {
        if (tracer != nullptr && tracer->armed() && name >= 0) {
            tracer_ = tracer;
            index_ = tracer->open(name);
        }
    }
    ~Span()
    {
        if (tracer_ != nullptr)
            tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
