#include "obs/manifest.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "kernels/isa.hpp"
#include "obs/crash_handler.hpp"
#include "obs/env.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

#ifndef MRQ_GIT_DESCRIBE
#define MRQ_GIT_DESCRIBE "unknown"
#endif
#ifndef MRQ_GIT_DIRTY
#define MRQ_GIT_DIRTY "0"
#endif
#ifndef MRQ_COMPILER
#define MRQ_COMPILER "unknown"
#endif
#ifndef MRQ_BUILD_TYPE
#define MRQ_BUILD_TYPE "unknown"
#endif
#ifndef MRQ_SANITIZE
#define MRQ_SANITIZE "none"
#endif

namespace mrq {
namespace obs {

namespace {

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

/** Live RunScopes, outermost first.  Guarded: the watchdog may flush
 *  from library code while the owner frame is far up the stack. */
struct ScopeStack
{
    std::mutex mutex;
    std::vector<RunScope*> scopes;
};

ScopeStack&
scopeStack()
{
    static ScopeStack stack;
    return stack;
}

void
pushScope(RunScope* scope)
{
    ScopeStack& stack = scopeStack();
    std::lock_guard<std::mutex> lock(stack.mutex);
    stack.scopes.push_back(scope);
}

void
popScope(RunScope* scope)
{
    ScopeStack& stack = scopeStack();
    std::lock_guard<std::mutex> lock(stack.mutex);
    auto it = std::find(stack.scopes.begin(), stack.scopes.end(), scope);
    if (it != stack.scopes.end())
        stack.scopes.erase(it);
}

/** MRQ_TRACE_OUT with an optional "{run}" placeholder substituted,
 *  so multi-run processes can split the timeline per run. */
std::string
resolveTraceOutPath(const std::string& run)
{
    std::string path = traceExportPath();
    const std::size_t pos = path.find("{run}");
    if (pos != std::string::npos)
        path.replace(pos, 5, run);
    return path;
}

std::atomic<std::int64_t> g_sink_flush_failures{0};

/** Report one lost sink file and count it for sinkFlushFailures(). */
void
sinkLost(const char* what, const std::string& run)
{
    std::fprintf(stderr, "mrq: %s for run '%s' were lost\n", what,
                 run.c_str());
    g_sink_flush_failures.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

const char*
buildGitDescribe()
{
    return MRQ_GIT_DESCRIBE;
}

void
applyBuildProvenance(RunManifest* manifest)
{
    if (manifest->gitDescribe.empty())
        manifest->gitDescribe = MRQ_GIT_DESCRIBE;
    if (manifest->gitDirty.empty())
        manifest->gitDirty = MRQ_GIT_DIRTY;
    if (manifest->compiler.empty())
        manifest->compiler = MRQ_COMPILER;
    if (manifest->buildType.empty())
        manifest->buildType = MRQ_BUILD_TYPE;
    if (manifest->sanitizer.empty())
        manifest->sanitizer = MRQ_SANITIZE;
    if (manifest->isa.empty())
        manifest->isa = kernels::isaName(kernels::activeIsa());
}

std::string
manifestJson(const RunManifest& manifest)
{
    std::string out = "{\"type\": \"manifest\", \"run\": \"" +
                      jsonEscape(manifest.run) + "\", \"seed\": " +
                      std::to_string(manifest.seed) + ", \"git\": \"" +
                      jsonEscape(manifest.gitDescribe) + "\"";
    const std::pair<const char*, const std::string*> provenance[] = {
        {"git_dirty", &manifest.gitDirty},
        {"compiler", &manifest.compiler},
        {"build_type", &manifest.buildType},
        {"sanitizer", &manifest.sanitizer},
        {"isa", &manifest.isa},
    };
    for (const auto& [key, value] : provenance)
        if (!value->empty())
            out += std::string(", \"") + key + "\": \"" +
                   jsonEscape(*value) + "\"";
    for (const auto& [key, value] : manifest.entries)
        out += ", \"" + jsonEscape(key) + "\": \"" + jsonEscape(value) +
               "\"";
    out += "}";
    return out;
}

RunScope::RunScope(RunManifest manifest, bool verbose)
    : manifest_(std::move(manifest)), verbose_(verbose)
{
    applyBuildProvenance(&manifest_);
    const bool sink_live = envSet("MRQ_METRICS_OUT") || traceEnabled() ||
                           verbose_;
    prevVerbose_ = setLogVerbose(verbose_);
    if (sink_live) {
        MetricsRegistry::instance().reset();
        prevEnabled_ = setMetricsEnabled(true);
    } else {
        prevEnabled_ = metricsEnabled();
    }
    // A fresh run gets a fresh inspector block: drop stale records but
    // keep the layer registry (layer objects cache their ids).
    if (QuantInspector::instance().enabled())
        QuantInspector::instance().reset();
    pushScope(this);
    // Arm the black box before anything can crash: install the signal
    // handlers (idempotent; MRQ_CRASH_HANDLER=0 opts out) and publish
    // this run's manifest line for post-mortem dumps.
    if (installCrashHandlersFromEnv())
        setPostmortemManifest(manifestJson(manifest_));
    // Heap profiler (MRQ_HEAPPROF / MRQ_HEAPPROF_OUT): idempotent —
    // already-running (e.g. armed by an outer scope or the bench
    // harness) just keeps running.
    startHeapProfilerFromEnv();
}

void
RunScope::flush()
{
    if (flushed_)
        return;
    flushed_ = true;
    if (metricsEnabled()) {
        if (const char* path = envValue("MRQ_METRICS_OUT", nullptr)) {
            if (!MetricsRegistry::instance().writeJsonl(
                    path, manifestJson(manifest_)))
                sinkLost("metrics", manifest_.run);
            else if (verbose_)
                std::fprintf(stdout, "mrq: metrics -> %s\n", path);
        }
        if (verbose_)
            MetricsRegistry::instance().printSummary(stdout);
    }
    if (traceExportEnabled()) {
        const std::string path = resolveTraceOutPath(manifest_.run);
        // Buffers are cumulative: each flush rewrites the file with
        // the timeline so far, so the last run's write holds the
        // whole process.
        if (!path.empty() && !writeTrace(path))
            sinkLost("timeline", manifest_.run);
    }
    if (heapProfilerEnabledFromEnv()) {
        // Like the timeline: the aggregated profile is cumulative, so
        // the last run's write holds the whole process unless the
        // path splits per run via "{run}".
        if (!flushHeapProfile(manifest_.run))
            sinkLost("heap profile", manifest_.run);
    }
    QuantInspector& inspector = QuantInspector::instance();
    if (inspector.enabled()) {
        // Appended, manifest line first: several runs in one process
        // stack their blocks in the same file, mirroring metrics.
        const std::string path = inspector.outPath();
        if (!inspector.writeJsonl(path, manifestJson(manifest_),
                                  /*append=*/true))
            sinkLost("inspector records", manifest_.run);
        else if (verbose_)
            std::fprintf(stdout, "mrq: inspector -> %s\n", path.c_str());
    }
}

RunScope::~RunScope()
{
    flush();
    popScope(this);
    setMetricsEnabled(prevEnabled_);
    setLogVerbose(prevVerbose_);
}

void
flushActiveRunScope()
{
    // Copy under the lock, flush outside it: flush() writes files and
    // may take the registry/ring locks.
    std::vector<RunScope*> scopes;
    {
        ScopeStack& stack = scopeStack();
        std::lock_guard<std::mutex> lock(stack.mutex);
        scopes = stack.scopes;
    }
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
        (*it)->flush();
}

std::int64_t
sinkFlushFailures()
{
    return g_sink_flush_failures.load(std::memory_order_relaxed);
}

} // namespace obs
} // namespace mrq
