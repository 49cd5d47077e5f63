#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/atomic_file.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"

namespace mrq {
namespace obs {

namespace detail {

// Order matters: g_metrics_enabled reads g_trace_enabled, and both
// are dynamically initialized in declaration order within this TU.
// MRQ_TRACE_OUT implies span tracing (the timeline is built from
// spans), which in turn implies metrics.
std::atomic<bool> g_trace_enabled{envTruthy("MRQ_TRACE") ||
                                  envSet("MRQ_TRACE_OUT")};
std::atomic<bool> g_metrics_enabled{
    envSet("MRQ_METRICS_OUT") ||
    g_trace_enabled.load(std::memory_order_relaxed)};

} // namespace detail

bool
setMetricsEnabled(bool on)
{
    return detail::g_metrics_enabled.exchange(on,
                                              std::memory_order_relaxed);
}

bool
setTraceEnabled(bool on)
{
    return detail::g_trace_enabled.exchange(on, std::memory_order_relaxed);
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

// ------------------------------------------------------------------
// Shard storage.
//
// Each shard is written by exactly one thread, but — since a
// snapshot may be taken from another thread while hot loops are
// still recording — every slot a reader can touch is a relaxed atomic and every block
// of slots is published with a release store.  The writer never uses
// an atomic RMW (single-writer load+store keeps the hot path at
// plain-move cost); the reader gets word-atomic, never-torn values
// that are at worst a few updates stale.  Capacities are fixed so a
// block address never moves after publication; updates past the caps
// are dropped and counted (debugDroppedUpdates).
// ------------------------------------------------------------------

using Slot = std::atomic<std::int64_t>;

/** Single-writer add: plain load+store, atomic only for readers. */
inline void
slotAdd(Slot& s, std::int64_t n)
{
    s.store(s.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

constexpr std::size_t kCounterSlotsPerBlock = 64;
constexpr std::size_t kMaxCounterBlocks = 64; ///< 4096 counter ids.
constexpr std::size_t kTimingSlotsPerBlock = 32;
constexpr std::size_t kMaxTimingBlocks = 32; ///< 1024 timing ids.
constexpr std::size_t kHistSlotsPerBlock = 4;
constexpr std::size_t kMaxHistBlocks = 128; ///< 512 histogram ids.
/** Largest per-histogram bucket count (current max in the tree is
 *  33); requests beyond it clamp into the last bucket. */
constexpr std::size_t kMaxHistBuckets = 64;

std::atomic<std::int64_t> g_dropped_updates{0};

struct CounterBlock
{
    Slot v[kCounterSlotsPerBlock] = {};
};

struct TimingSlot
{
    Slot count{0};
    Slot totalNs{0};
    Slot minNs{0};
    Slot maxNs{0};
};

struct TimingBlock
{
    TimingSlot v[kTimingSlotsPerBlock] = {};
};

struct HistSlot
{
    Slot buckets[kMaxHistBuckets] = {};
    Slot weighted{0};
    Slot sizeHint{0}; ///< Max bucket count recorded at this site.
};

struct HistBlock
{
    HistSlot v[kHistSlotsPerBlock] = {};
};

/**
 * Fixed array of lazily allocated slot blocks.  The owning thread
 * creates a block on first touch and publishes it with a release
 * store; concurrent readers acquire the pointer and see fully
 * zero-initialized slots plus some prefix of the writer's updates.
 */
template <typename Block, std::size_t MaxBlocks>
struct BlockTable
{
    std::atomic<Block*> blocks[MaxBlocks] = {};

    ~BlockTable()
    {
        for (auto& b : blocks)
            delete b.load(std::memory_order_relaxed);
    }

    /** Owner-thread lookup, allocating on first touch; nullptr when
     *  @p block is past the fixed capacity. */
    Block*
    writerBlock(std::size_t block)
    {
        if (block >= MaxBlocks) {
            g_dropped_updates.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        Block* p = blocks[block].load(std::memory_order_relaxed);
        if (p == nullptr) {
            p = new Block();
            blocks[block].store(p, std::memory_order_release);
        }
        return p;
    }

    /** Reader lookup (snapshot, possibly concurrent); may be nullptr. */
    const Block*
    readerBlock(std::size_t block) const
    {
        return block < MaxBlocks
                   ? blocks[block].load(std::memory_order_acquire)
                   : nullptr;
    }

    /** Zero every published slot (serial points; readers tolerate). */
    template <typename Fn>
    void
    forEachPublished(Fn&& fn)
    {
        for (std::size_t b = 0; b < MaxBlocks; ++b) {
            Block* p = blocks[b].load(std::memory_order_relaxed);
            if (p != nullptr)
                fn(*p);
        }
    }
};

/**
 * Per-thread value store.  Owned by the registry (so values survive
 * worker-thread exit, e.g. across ThreadPool::resize) but written by
 * exactly one thread; concurrently readable per the block contract
 * above.
 */
struct Shard
{
    BlockTable<CounterBlock, kMaxCounterBlocks> counters;
    BlockTable<HistBlock, kMaxHistBlocks> hists;
    BlockTable<TimingBlock, kMaxTimingBlocks> timings;
};

struct SeriesRecord
{
    std::string name;
    std::int64_t step;
    double value;
};

/** Deterministic double rendering (shared by JSONL and tests). */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

struct MetricsRegistry::Impl
{
    mutable std::mutex mutex;

    std::vector<std::string> counterNames;
    std::vector<std::string> histNames;
    std::vector<std::string> timingNames;
    std::unordered_map<std::string, int> counterIds;
    std::unordered_map<std::string, int> histIds;
    std::unordered_map<std::string, int> timingIds;

    std::vector<std::unique_ptr<Shard>> shards;

    std::vector<std::pair<std::string, double>> gauges;
    std::unordered_map<std::string, std::size_t> gaugeIds;
    std::vector<SeriesRecord> series;
    std::vector<Snapshot::AlertRecord> alerts;

    Shard&
    threadShard()
    {
        thread_local struct Slot
        {
            Impl* owner = nullptr;
            Shard* shard = nullptr;
        } slot;
        // One shard per (thread, registry); the registry is a process
        // singleton, so the owner check only guards test scenarios
        // that re-create the registry (not supported; defensive).
        if (slot.owner != this) {
            std::lock_guard<std::mutex> lock(mutex);
            shards.push_back(std::make_unique<Shard>());
            slot.shard = shards.back().get();
            slot.owner = this;
        }
        return *slot.shard;
    }

    static int
    internName(const std::string& name, std::vector<std::string>* names,
               std::unordered_map<std::string, int>* ids)
    {
        auto it = ids->find(name);
        if (it != ids->end())
            return it->second;
        const int id = static_cast<int>(names->size());
        names->push_back(name);
        ids->emplace(name, id);
        return id;
    }
};

MetricsRegistry&
MetricsRegistry::instance()
{
    static MetricsRegistry reg;
    return reg;
}

MetricsRegistry::Impl&
MetricsRegistry::impl() const
{
    static Impl impl;
    return impl;
}

int
MetricsRegistry::counterId(const std::string& name)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    return Impl::internName(name, &im.counterNames, &im.counterIds);
}

int
MetricsRegistry::histogramId(const std::string& name)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    return Impl::internName(name, &im.histNames, &im.histIds);
}

int
MetricsRegistry::timingId(const std::string& name)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    return Impl::internName(name, &im.timingNames, &im.timingIds);
}

void
MetricsRegistry::addCounter(int id, std::int64_t n)
{
    const std::size_t i = static_cast<std::size_t>(id);
    CounterBlock* b =
        impl().threadShard().counters.writerBlock(i / kCounterSlotsPerBlock);
    if (b != nullptr)
        slotAdd(b->v[i % kCounterSlotsPerBlock], n);
}

void
MetricsRegistry::recordHistogram(int id, std::size_t buckets,
                                 std::size_t value, std::size_t count)
{
    const std::size_t i = static_cast<std::size_t>(id);
    HistBlock* b =
        impl().threadShard().hists.writerBlock(i / kHistSlotsPerBlock);
    if (b == nullptr)
        return;
    HistSlot& h = b->v[i % kHistSlotsPerBlock];
    const std::size_t size = std::min(buckets, kMaxHistBuckets);
    if (static_cast<std::size_t>(
            h.sizeHint.load(std::memory_order_relaxed)) < size)
        h.sizeHint.store(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
    slotAdd(h.buckets[std::min(value, size - 1)],
            static_cast<std::int64_t>(count));
    slotAdd(h.weighted, static_cast<std::int64_t>(value * count));
}

void
MetricsRegistry::recordTiming(int id, std::int64_t ns)
{
    const std::size_t i = static_cast<std::size_t>(id);
    TimingBlock* b =
        impl().threadShard().timings.writerBlock(i / kTimingSlotsPerBlock);
    if (b == nullptr)
        return;
    TimingSlot& t = b->v[i % kTimingSlotsPerBlock];
    const std::int64_t count = t.count.load(std::memory_order_relaxed);
    if (count == 0) {
        t.minNs.store(ns, std::memory_order_relaxed);
        t.maxNs.store(ns, std::memory_order_relaxed);
    } else {
        if (ns < t.minNs.load(std::memory_order_relaxed))
            t.minNs.store(ns, std::memory_order_relaxed);
        if (ns > t.maxNs.load(std::memory_order_relaxed))
            t.maxNs.store(ns, std::memory_order_relaxed);
    }
    t.count.store(count + 1, std::memory_order_relaxed);
    slotAdd(t.totalNs, ns);
}

void
MetricsRegistry::addCounterNamed(const std::string& name, std::int64_t n)
{
    addCounter(counterId(name), n);
}

void
MetricsRegistry::setGauge(const std::string& name, double value)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    auto it = im.gaugeIds.find(name);
    if (it != im.gaugeIds.end()) {
        im.gauges[it->second].second = value;
        return;
    }
    im.gaugeIds.emplace(name, im.gauges.size());
    im.gauges.emplace_back(name, value);
}

void
MetricsRegistry::recordSeries(const std::string& name, std::int64_t step,
                              double value)
{
    // Metric checkpoint in the black box (before the registry lock:
    // the flight path is lock-free and must stay off every mutex).
    if (flightEnabled())
        flightRecord(FlightKind::Metric, name.c_str(), step, -1, value);
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    im.series.push_back(SeriesRecord{name, step, value});
}

void
MetricsRegistry::recordAlert(const std::string& severity,
                             const std::string& rule,
                             const std::string& context,
                             std::int64_t batch,
                             const std::string& detail)
{
    if (flightEnabled()) {
        // "severity:rule" fits the fixed-width event name; context and
        // detail live in the JSONL alert record this call also feeds.
        const std::string label = severity + ":" + rule;
        flightRecord(FlightKind::Alert, label.c_str(), batch);
    }
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    im.alerts.push_back(
        Snapshot::AlertRecord{severity, rule, context, batch, detail});
}

Snapshot
MetricsRegistry::snapshot() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    Snapshot snap;

    // Aggregate shards: all sharded values are integers, so the sum
    // is independent of how work was distributed over threads.  Slot
    // loads are relaxed atomics, so aggregating concurrently with
    // hot-path writers reads clean values —
    // each at worst a few updates stale, never torn.
    std::vector<std::int64_t> counters(im.counterNames.size(), 0);
    std::vector<std::vector<std::int64_t>> hists(im.histNames.size());
    std::vector<std::int64_t> weighted(im.histNames.size(), 0);
    std::vector<TimingTotal> timings(im.timingNames.size());
    for (const auto& shard : im.shards) {
        for (std::size_t i = 0; i < counters.size(); ++i) {
            const CounterBlock* b =
                shard->counters.readerBlock(i / kCounterSlotsPerBlock);
            if (b != nullptr)
                counters[i] += b->v[i % kCounterSlotsPerBlock].load(
                    std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < hists.size(); ++i) {
            const HistBlock* hb =
                shard->hists.readerBlock(i / kHistSlotsPerBlock);
            if (hb == nullptr)
                continue;
            const HistSlot& h = hb->v[i % kHistSlotsPerBlock];
            const std::size_t size = static_cast<std::size_t>(
                h.sizeHint.load(std::memory_order_relaxed));
            if (hists[i].size() < size)
                hists[i].resize(size, 0);
            for (std::size_t b = 0; b < size; ++b)
                hists[i][b] +=
                    h.buckets[b].load(std::memory_order_relaxed);
            weighted[i] += h.weighted.load(std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < timings.size(); ++i) {
            const TimingBlock* tb =
                shard->timings.readerBlock(i / kTimingSlotsPerBlock);
            if (tb == nullptr)
                continue;
            const TimingSlot& ts = tb->v[i % kTimingSlotsPerBlock];
            TimingTotal t;
            t.count = ts.count.load(std::memory_order_relaxed);
            if (t.count == 0)
                continue;
            t.totalNs = ts.totalNs.load(std::memory_order_relaxed);
            t.minNs = ts.minNs.load(std::memory_order_relaxed);
            t.maxNs = ts.maxNs.load(std::memory_order_relaxed);
            TimingTotal& acc = timings[i];
            if (acc.count == 0) {
                acc = t;
                continue;
            }
            acc.count += t.count;
            acc.totalNs += t.totalNs;
            acc.minNs = std::min(acc.minNs, t.minNs);
            acc.maxNs = std::max(acc.maxNs, t.maxNs);
        }
    }

    for (std::size_t i = 0; i < counters.size(); ++i)
        snap.counters.push_back({im.counterNames[i], counters[i]});
    for (const auto& [name, value] : im.gauges)
        snap.gauges.push_back({name, value});
    for (std::size_t i = 0; i < hists.size(); ++i) {
        Snapshot::HistValue h;
        h.name = im.histNames[i];
        h.counts = hists[i];
        for (std::int64_t c : h.counts)
            h.total += c;
        h.weighted = weighted[i];
        snap.histograms.push_back(std::move(h));
    }
    for (const SeriesRecord& r : im.series)
        snap.series.push_back({r.name, r.step, r.value});
    snap.alerts = im.alerts;
    for (std::size_t i = 0; i < timings.size(); ++i)
        if (timings[i].count > 0)
            snap.timings.push_back({im.timingNames[i], timings[i]});

    auto byName = [](const auto& a, const auto& b) {
        return a.name < b.name;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(), byName);
    std::sort(snap.timings.begin(), snap.timings.end(), byName);
    return snap;
}

bool
MetricsRegistry::writeJsonl(const std::string& path,
                            const std::string& manifest_json, bool append)
{
    const Snapshot snap = snapshot();

    AtomicFile af(path, append);
    std::FILE* f = af.stream();
    if (f == nullptr) {
        std::fprintf(stderr, "mrq: metrics: cannot write %s\n",
                     path.c_str());
        return false;
    }

    if (!manifest_json.empty())
        std::fprintf(f, "%s\n", manifest_json.c_str());
    for (const auto& c : snap.counters)
        std::fprintf(f,
                     "{\"type\": \"counter\", \"name\": \"%s\", "
                     "\"value\": %lld}\n",
                     jsonEscape(c.name).c_str(),
                     static_cast<long long>(c.value));
    for (const auto& g : snap.gauges)
        std::fprintf(f,
                     "{\"type\": \"gauge\", \"name\": \"%s\", "
                     "\"value\": %s}\n",
                     jsonEscape(g.name).c_str(),
                     formatDouble(g.value).c_str());
    for (const auto& h : snap.histograms) {
        std::fprintf(f,
                     "{\"type\": \"hist\", \"name\": \"%s\", "
                     "\"counts\": [",
                     jsonEscape(h.name).c_str());
        for (std::size_t b = 0; b < h.counts.size(); ++b)
            std::fprintf(f, "%s%lld", b ? ", " : "",
                         static_cast<long long>(h.counts[b]));
        std::fprintf(f, "], \"total\": %lld, \"sum\": %lld}\n",
                     static_cast<long long>(h.total),
                     static_cast<long long>(h.weighted));
    }
    for (const auto& s : snap.series)
        std::fprintf(f,
                     "{\"type\": \"series\", \"name\": \"%s\", "
                     "\"step\": %lld, \"value\": %s}\n",
                     jsonEscape(s.name).c_str(),
                     static_cast<long long>(s.step),
                     formatDouble(s.value).c_str());
    for (const auto& a : snap.alerts)
        std::fprintf(f,
                     "{\"type\": \"alert\", \"severity\": \"%s\", "
                     "\"rule\": \"%s\", \"context\": \"%s\", "
                     "\"batch\": %lld, \"detail\": \"%s\"}\n",
                     jsonEscape(a.severity).c_str(),
                     jsonEscape(a.rule).c_str(),
                     jsonEscape(a.context).c_str(),
                     static_cast<long long>(a.batch),
                     jsonEscape(a.detail).c_str());
    const bool ok = std::ferror(f) == 0;
    return af.commit() && ok;
}

void
MetricsRegistry::printSummary(std::FILE* out) const
{
    const Snapshot snap = snapshot();
    if (snap.counters.empty() && snap.gauges.empty() &&
        snap.histograms.empty() && snap.series.empty() &&
        snap.timings.empty() && snap.alerts.empty())
        return;
    std::fprintf(out, "---- mrq run summary ----\n");
    for (const auto& c : snap.counters)
        std::fprintf(out, "  %-44s %lld\n", c.name.c_str(),
                     static_cast<long long>(c.value));
    for (const auto& g : snap.gauges)
        std::fprintf(out, "  %-44s %.6g\n", g.name.c_str(), g.value);
    for (const auto& h : snap.histograms) {
        const double mean =
            h.total > 0 ? static_cast<double>(h.weighted) /
                              static_cast<double>(h.total)
                        : 0.0;
        std::fprintf(out, "  %-44s n=%lld mean=%.3f [", h.name.c_str(),
                     static_cast<long long>(h.total), mean);
        for (std::size_t b = 0; b < h.counts.size(); ++b)
            std::fprintf(out, "%s%lld", b ? " " : "",
                         static_cast<long long>(h.counts[b]));
        std::fprintf(out, "]\n");
    }
    // Series: print the last point of each name (full curves live in
    // the JSONL sink).
    std::vector<std::string> seen;
    for (auto it = snap.series.rbegin(); it != snap.series.rend(); ++it) {
        if (std::find(seen.begin(), seen.end(), it->name) != seen.end())
            continue;
        seen.push_back(it->name);
        std::fprintf(out, "  %-44s last(step=%lld)=%.6g\n",
                     it->name.c_str(),
                     static_cast<long long>(it->step), it->value);
    }
    for (const auto& a : snap.alerts)
        std::fprintf(out, "  ALERT [%s] %s at batch %lld (%s): %s\n",
                     a.severity.c_str(), a.rule.c_str(),
                     static_cast<long long>(a.batch), a.context.c_str(),
                     a.detail.c_str());
    // Wall-clock rows only when the user opted in via MRQ_TRACE: the
    // verbose summary of a deterministic run must itself be
    // deterministic (quickstart stdout is diffed across MRQ_THREADS),
    // and timing aggregates never are.
    if (traceEnabled())
        for (const auto& t : snap.timings)
            std::fprintf(
                out,
                "  %-44s n=%lld total=%.3fms mean=%.1fus "
                "min=%.1fus max=%.1fus\n",
                t.name.c_str(), static_cast<long long>(t.t.count),
                static_cast<double>(t.t.totalNs) * 1e-6,
                static_cast<double>(t.t.totalNs) /
                    static_cast<double>(t.t.count) * 1e-3,
                static_cast<double>(t.t.minNs) * 1e-3,
                static_cast<double>(t.t.maxNs) * 1e-3);
    std::fprintf(out, "-------------------------\n");
}

void
MetricsRegistry::reset()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    for (const auto& shard : im.shards) {
        shard->counters.forEachPublished([](CounterBlock& b) {
            for (Slot& s : b.v)
                s.store(0, std::memory_order_relaxed);
        });
        shard->hists.forEachPublished([](HistBlock& hb) {
            for (HistSlot& h : hb.v) {
                for (Slot& s : h.buckets)
                    s.store(0, std::memory_order_relaxed);
                h.weighted.store(0, std::memory_order_relaxed);
            }
        });
        shard->timings.forEachPublished([](TimingBlock& tb) {
            for (TimingSlot& t : tb.v) {
                t.count.store(0, std::memory_order_relaxed);
                t.totalNs.store(0, std::memory_order_relaxed);
                t.minNs.store(0, std::memory_order_relaxed);
                t.maxNs.store(0, std::memory_order_relaxed);
            }
        });
    }
    im.gauges.clear();
    im.gaugeIds.clear();
    im.series.clear();
    im.alerts.clear();
}

std::int64_t
MetricsRegistry::debugDroppedUpdates() const
{
    return g_dropped_updates.load(std::memory_order_relaxed);
}

std::size_t
MetricsRegistry::debugShardCount() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    return im.shards.size();
}

std::size_t
MetricsRegistry::debugMetricCount() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mutex);
    return im.counterNames.size() + im.histNames.size() +
           im.timingNames.size() + im.gauges.size() + im.series.size();
}

// ---------------------------------------------------------------------
// Structured run log.
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_log_verbose{false};
} // namespace

bool
setLogVerbose(bool on)
{
    return g_log_verbose.exchange(on, std::memory_order_relaxed);
}

bool
logVerbose()
{
    return g_log_verbose.load(std::memory_order_relaxed);
}

void
logf(const char* fmt, ...)
{
    if (!logVerbose())
        return;
    std::fputs("[mrq] ", stdout);
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::fputc('\n', stdout);
}

} // namespace obs
} // namespace mrq
