#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/atomic_file.hpp"
#include "obs/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mrq {
namespace obs {

namespace detail {

std::atomic<bool> g_trace_export_enabled{envSet("MRQ_TRACE_OUT")};

} // namespace detail

bool
setTraceExportEnabled(bool on)
{
    return detail::g_trace_export_enabled.exchange(
        on, std::memory_order_relaxed);
}

std::string
traceExportPath()
{
    return std::string(envValue("MRQ_TRACE_OUT", ""));
}

namespace {

/** One completed span; ~40 bytes, so a default ring is ~1.3 MB. */
struct SpanEvent
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t arg = -1;
    int pathId = 0;
};

/** Drop-oldest ring written by exactly one thread. */
struct Ring
{
    std::vector<SpanEvent> buf; ///< Fixed capacity (buf.size()).
    std::uint64_t writes = 0;   ///< Total pushes since last reset.
};

struct CounterSample
{
    std::string track;
    double value = 0.0;
    std::int64_t ns = 0;
};

struct InstantEvent
{
    std::string name;
    std::string detail;
    std::int64_t ns = 0;
};

constexpr std::size_t kDefaultRingCapacity = 1u << 15;

std::size_t
initialRingCapacity()
{
    const long n = envLong("MRQ_TRACE_RING", 0);
    if (n > 0)
        return static_cast<std::size_t>(n);
    return kDefaultRingCapacity;
}

/**
 * Owns every ring so events survive worker-thread exit (e.g. across
 * ThreadPool::resize).  The mutex guards ring creation and the serial
 * side buffers; pushes into an existing ring are lock-free.  Serial
 * maintenance (reset, capacity change, flush reads) relies on
 * thread-pool quiescence for the happens-before edge, exactly like
 * MetricsRegistry::reset() over its shards.
 */
struct RingTable
{
    std::mutex mutex;
    std::vector<std::unique_ptr<Ring>> rings;
    std::size_t capacity = initialRingCapacity();
    std::vector<CounterSample> counters;
    std::vector<InstantEvent> instants;

    Ring&
    threadRing()
    {
        thread_local struct Slot
        {
            RingTable* owner = nullptr;
            Ring* ring = nullptr;
        } slot;
        if (slot.owner != this) {
            std::lock_guard<std::mutex> lock(mutex);
            auto ring = std::make_unique<Ring>();
            ring->buf.resize(capacity);
            slot.ring = ring.get();
            slot.owner = this;
            rings.push_back(std::move(ring));
        }
        return *slot.ring;
    }
};

RingTable&
table()
{
    static RingTable tbl;
    return tbl;
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

/** Nanoseconds -> trace-event microseconds with sub-µs precision. */
std::string
formatUs(std::int64_t ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    return buf;
}

/** A rendered trace event plus its sort key. */
struct Rendered
{
    std::int64_t ns = 0;
    std::string json;
};

} // namespace

void
traceExportSpan(int path_id, std::int64_t start_ns, std::int64_t end_ns,
                std::int64_t arg)
{
    if (!traceExportEnabled())
        return;
    Ring& ring = table().threadRing();
    SpanEvent& slot = ring.buf[ring.writes % ring.buf.size()];
    slot.startNs = start_ns;
    slot.endNs = end_ns;
    slot.arg = arg;
    slot.pathId = path_id;
    ++ring.writes;
}

void
traceCounterSample(const char* track, double value)
{
    if (!traceExportEnabled())
        return;
    RingTable& tbl = table();
    std::lock_guard<std::mutex> lock(tbl.mutex);
    tbl.counters.push_back(CounterSample{track, value, nowNs()});
}

void
traceInstant(const std::string& name, const std::string& detail)
{
    if (!traceExportEnabled())
        return;
    RingTable& tbl = table();
    std::lock_guard<std::mutex> lock(tbl.mutex);
    tbl.instants.push_back(InstantEvent{name, detail, nowNs()});
}

bool
writeTrace(const std::string& path)
{
    // Resolve interned paths first: the path table and ring table are
    // separate locks and this ordering never nests them.
    const std::vector<std::string> paths = traceAllPaths();

    RingTable& tbl = table();
    std::lock_guard<std::mutex> lock(tbl.mutex);

    // Rebase timestamps to the earliest event so "ts" values start
    // near zero (absolute steady_clock readings are unwieldy in
    // trace viewers).
    std::int64_t base = std::numeric_limits<std::int64_t>::max();
    std::uint64_t dropped = 0;
    for (const auto& ring : tbl.rings) {
        const std::uint64_t cap = ring->buf.size();
        const std::uint64_t kept =
            std::min<std::uint64_t>(ring->writes, cap);
        dropped += ring->writes - kept;
        for (std::uint64_t i = ring->writes - kept; i < ring->writes;
             ++i)
            base = std::min(base, ring->buf[i % cap].startNs);
    }
    for (const CounterSample& c : tbl.counters)
        base = std::min(base, c.ns);
    for (const InstantEvent& i : tbl.instants)
        base = std::min(base, i.ns);
    if (base == std::numeric_limits<std::int64_t>::max())
        base = 0;

    // Surface ring overflow as a metrics counter.  Recorded at
    // flush time, which every sink-ordering puts *after* the
    // deterministic snapshots (RunScope writes JSONL first, the bench
    // harness snapshots before flushing traces), so the possibly
    // thread-schedule-dependent drop count never reaches them.
    if (dropped > 0 && metricsEnabled())
        MetricsRegistry::instance().addCounterNamed(
            "trace.dropped_events", static_cast<std::int64_t>(dropped));

    std::vector<Rendered> events;
    char buf[256];

    for (std::size_t t = 0; t < tbl.rings.size(); ++t) {
        const Ring& ring = *tbl.rings[t];
        const std::uint64_t cap = ring.buf.size();
        const std::uint64_t kept = std::min<std::uint64_t>(ring.writes,
                                                           cap);
        for (std::uint64_t i = ring.writes - kept; i < ring.writes;
             ++i) {
            const SpanEvent& e = ring.buf[i % cap];
            const std::string& full =
                static_cast<std::size_t>(e.pathId) < paths.size()
                    ? paths[static_cast<std::size_t>(e.pathId)]
                    : paths[0];
            const std::size_t slash = full.rfind('/');
            const std::string name = slash == std::string::npos
                                         ? full
                                         : full.substr(slash + 1);
            std::string json = "{\"name\": \"" + jsonEscape(name) +
                               "\", \"cat\": \"span\", \"ph\": \"X\", "
                               "\"pid\": 1, \"tid\": " +
                               std::to_string(t) + ", \"ts\": ";
            json += formatUs(e.startNs - base);
            json += ", \"dur\": ";
            json += formatUs(e.endNs - e.startNs);
            json += ", \"args\": {\"path\": \"" + jsonEscape(full) +
                    "\"";
            if (e.arg >= 0) {
                std::snprintf(buf, sizeof(buf), ", \"arg\": %lld",
                              static_cast<long long>(e.arg));
                json += buf;
            }
            json += "}}";
            events.push_back(Rendered{e.startNs, std::move(json)});
        }
    }

    for (const CounterSample& c : tbl.counters) {
        std::snprintf(buf, sizeof(buf), "%.17g", c.value);
        events.push_back(Rendered{
            c.ns, "{\"name\": \"" + jsonEscape(c.track) +
                      "\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, "
                      "\"ts\": " +
                      formatUs(c.ns - base) +
                      ", \"args\": {\"value\": " + buf + "}}"});
    }

    for (const InstantEvent& i : tbl.instants)
        events.push_back(Rendered{
            i.ns, "{\"name\": \"" + jsonEscape(i.name) +
                      "\", \"cat\": \"alert\", \"ph\": \"i\", "
                      "\"pid\": 1, \"tid\": 0, \"ts\": " +
                      formatUs(i.ns - base) + ", \"s\": \"p\", "
                      "\"args\": {\"detail\": \"" +
                      jsonEscape(i.detail) + "\"}}"});

    std::stable_sort(events.begin(), events.end(),
                     [](const Rendered& a, const Rendered& b) {
                         return a.ns < b.ns;
                     });

    AtomicFile af(path);
    std::FILE* f = af.stream();
    if (f == nullptr) {
        std::fprintf(stderr, "mrq: trace: cannot write %s\n",
                     path.c_str());
        return false;
    }

    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n");
    std::fprintf(f,
                 "\"otherData\": {\"droppedEvents\": \"%llu\", "
                 "\"threads\": \"%zu\"},\n",
                 static_cast<unsigned long long>(dropped),
                 tbl.rings.size());
    std::fprintf(f, "\"traceEvents\": [\n");
    std::fprintf(f, "{\"name\": \"process_name\", \"ph\": \"M\", "
                    "\"pid\": 1, \"args\": {\"name\": \"mrq\"}}");
    for (std::size_t t = 0; t < tbl.rings.size(); ++t) {
        const std::string thread_name =
            t == 0 ? "main" : "worker-" + std::to_string(t);
        std::fprintf(f,
                     ",\n{\"name\": \"thread_name\", \"ph\": \"M\", "
                     "\"pid\": 1, \"tid\": %zu, \"args\": {\"name\": "
                     "\"%s\"}}",
                     t, thread_name.c_str());
    }
    for (const Rendered& e : events)
        std::fprintf(f, ",\n%s", e.json.c_str());
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    return af.commit() && ok;
}

void
resetTraceBuffers()
{
    RingTable& tbl = table();
    std::lock_guard<std::mutex> lock(tbl.mutex);
    for (const auto& ring : tbl.rings)
        ring->writes = 0;
    tbl.counters.clear();
    tbl.instants.clear();
}

std::uint64_t
traceDroppedEvents()
{
    RingTable& tbl = table();
    std::lock_guard<std::mutex> lock(tbl.mutex);
    std::uint64_t dropped = 0;
    for (const auto& ring : tbl.rings)
        if (ring->writes > ring->buf.size())
            dropped += ring->writes - ring->buf.size();
    return dropped;
}

std::uint64_t
traceBufferedEvents()
{
    RingTable& tbl = table();
    std::lock_guard<std::mutex> lock(tbl.mutex);
    std::uint64_t kept = 0;
    for (const auto& ring : tbl.rings)
        kept += std::min<std::uint64_t>(ring->writes, ring->buf.size());
    return kept;
}

void
setTraceRingCapacity(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    RingTable& tbl = table();
    std::lock_guard<std::mutex> lock(tbl.mutex);
    tbl.capacity = capacity;
    for (const auto& ring : tbl.rings) {
        ring->buf.assign(capacity, SpanEvent{});
        ring->writes = 0;
    }
}

} // namespace obs
} // namespace mrq
