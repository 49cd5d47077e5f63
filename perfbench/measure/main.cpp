/**
 * @file
 * The benchmark's measuring program: runs one workload for a fixed
 * number of steps and writes the raw measurements (step times, set-up
 * times, checks, digest, and in a traced run the spans and exact
 * counts) as one JSON file.  perfbench/run.py turns that file into the
 * reported metrics.
 *
 * Usage:
 *   perfbench_measure --workload NAME --seed N --seconds S --trace 0|1
 *                     --out FILE [--work-dir DIR] [--smoke]
 *                     [--delay-span SPAN --delay-us US] [--corrupt]
 *
 * The pool runs the workload's own thread count, or MRQ_THREADS when
 * that is set.  Every step and set-up records its wall time, the
 * process's CPU time and the VM's steal time, from which analysis.py
 * derives steal-free host times.
 *
 * An untraced run (--trace 0) sets the workload up three times (the
 * median is setup_s) and times its steps with every library
 * observability knob off.  A traced run (--trace 1) times one
 * untraced pass, then a fresh instance with benchmark-side spans, and
 * finally a short counting pass with the library's metrics registry
 * on, whose counter deltas give the exact per-step counts.
 */

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/isa.hpp"
#include "kernels/roofline.hpp"
#include "obs/env.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = 0;
    std::string out;
    std::string workDir = ".";
    bool smoke = false;
    std::string delaySpan;
    std::int64_t delayUs = 0;
    bool corrupt = false;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr, "perfbench_measure: %s\n", why.c_str());
    std::exit(2);
}

long long
parseInt(const std::string& flag, const char* v)
{
    char* end = nullptr;
    const long long x = std::strtoll(v, &end, 10);
    if (end == v || *end != '\0' || x < 0)
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return x;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = value();
        } else if (flag == "--seed") {
            a.seed = static_cast<std::uint64_t>(parseInt(flag, value()));
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseInt(flag, value()));
            have_seconds = true;
        } else if (flag == "--trace") {
            a.trace = static_cast<int>(parseInt(flag, value()));
            if (a.trace > 1)
                usage("--trace takes 0 or 1");
        } else if (flag == "--out") {
            a.out = value();
        } else if (flag == "--work-dir") {
            a.workDir = value();
        } else if (flag == "--smoke") {
            a.smoke = true;
        } else if (flag == "--delay-span") {
            a.delaySpan = value();
        } else if (flag == "--delay-us") {
            a.delayUs = parseInt(flag, value());
        } else if (flag == "--corrupt") {
            a.corrupt = true;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty() || !have_seed || !have_seconds || a.out.empty())
        usage("--workload, --seed, --seconds and --out are required");
    if (!a.delaySpan.empty() && a.trace != 1)
        usage("--delay-span needs --trace 1");
    return a;
}

/**
 * Refuse to measure under any library knob that changes what runs:
 * observability collectors, fault injection, guards.  Several are read
 * during static initialisation, so they cannot be unset from main.
 * MRQ_THREADS sets the pool size and MRQ_ISA the kernel ISA; both are
 * stamped into the fingerprint, so both are allowed.
 */
std::vector<std::string>
forbiddenKnobs()
{
    std::vector<std::string> bad;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        if (entry.rfind("MRQ_", 0) != 0)
            continue;
        const std::string name = entry.substr(0, entry.find('='));
        if (name != "MRQ_THREADS" && name != "MRQ_ISA")
            bad.push_back(name);
    }
    return bad;
}

std::string
cpuModel()
{
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
        __get_cpuid(0x80000002u + leaf, &regs[leaf * 4],
                    &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                    &regs[leaf * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
}

std::size_t
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

template <typename T>
std::string
jsonArray(const std::vector<T>& v)
{
    std::ostringstream os;
    os.precision(17);
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
    os << ']';
    return os.str();
}

std::string
jsonMap(const std::map<std::string, double>& m)
{
    std::string out = "{";
    for (const auto& [k, v] : m) {
        if (out.size() > 1)
            out += ',';
        out += jsonString(k) + ":" + jsonNumber(v);
    }
    return out + "}";
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Outcome checks of every step run, counted as operations. */
struct Checks
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> failures;

    void
    record(bool ok, const std::string& why)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 20)
                failures.push_back(why);
        }
    }
};

std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/**
 * Steal time of the whole VM so far: the time its vCPUs were ready to
 * run but the hypervisor ran something else, summed over vCPUs, from
 * the "cpu" line of /proc/stat (USER_HZ ticks).  0 where unavailable.
 */
std::int64_t
stealNs()
{
    static const long hz = sysconf(_SC_CLK_TCK);
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr)
        return 0;
    unsigned long long v[8] = {};
    const int got =
        std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    if (got != 8 || hz <= 0)
        return 0;
    return static_cast<std::int64_t>(v[7]) * (1000000000 / hz);
}

/** Wall, process CPU and VM steal clocks read together, the cheap
 *  wall clock innermost, so the interval holds only one fast read. */
struct Clocks
{
    std::int64_t wall = 0;
    std::int64_t cpu = 0;
    std::int64_t steal = 0;

    static Clocks
    start()
    {
        Clocks c;
        c.steal = stealNs();
        c.cpu = processCpuNs();
        c.wall = nowNs();
        return c;
    }

    static Clocks
    end()
    {
        Clocks c;
        c.wall = nowNs();
        c.cpu = processCpuNs();
        c.steal = stealNs();
        return c;
    }
};

/** Wall time, process CPU time and VM steal time of each interval
 *  (timed step or set-up). */
struct Times
{
    std::vector<std::int64_t> wallNs;
    std::vector<std::int64_t> cpuNs;
    std::vector<std::int64_t> stealNs;

    void
    add(const Clocks& from, const Clocks& to)
    {
        wallNs.push_back(to.wall - from.wall);
        cpuNs.push_back(to.cpu - from.cpu);
        stealNs.push_back(to.steal - from.steal);
    }

    /** The three arrays as JSON members named <prefix>wall_ns etc. */
    std::string
    json(const std::string& prefix) const
    {
        return "\"" + prefix + "wall_ns\":" + jsonArray(wallNs) + ",\"" +
               prefix + "cpu_ns\":" + jsonArray(cpuNs) + ",\"" + prefix +
               "steal_ns\":" + jsonArray(stealNs);
    }
};

/** Run @p steps timed steps starting at step index @p first. */
Times
timedSteps(Workload& w, std::size_t first, std::size_t steps,
           Tracer* tracer, int step_span, bool corrupt, Checks* checks)
{
    Times t;
    t.wallNs.reserve(steps);
    t.cpuNs.reserve(steps);
    t.stealNs.reserve(steps);
    for (std::size_t k = 0; k < steps; ++k) {
        const std::size_t i = first + k;
        if (tracer != nullptr)
            tracer->setStep(static_cast<int>(k));
        const Clocks c0 = Clocks::start();
        {
            Span span(tracer, step_span);
            w.step(i);
        }
        t.add(c0, Clocks::end());
        if (corrupt && k == 0)
            w.corruptLastOutput();
        std::string why;
        const bool ok = w.check(i, &why);
        checks->record(ok, "step " + std::to_string(i) + ": " + why);
    }
    return t;
}

std::int64_t
counter(const mrq::obs::Snapshot& s, const std::string& name)
{
    for (const auto& c : s.counters)
        if (c.name == name)
            return c.value;
    return 0;
}

std::int64_t
timingNs(const mrq::obs::Snapshot& s, const std::string& name)
{
    for (const auto& t : s.timings)
        if (t.name == name)
            return t.t.totalNs;
    return 0;
}

/** Exact per-step counts from the library registry over @p steps
 *  steps starting at @p first; the registry is on only here. */
std::map<std::string, double>
countingPass(Workload& w, std::size_t first, std::size_t steps,
             Checks* checks)
{
    auto& reg = mrq::obs::MetricsRegistry::instance();
    mrq::obs::setMetricsEnabled(true);
    const mrq::obs::Snapshot before = reg.snapshot();
    timedSteps(w, first, steps, nullptr, -1, false, checks);
    const mrq::obs::Snapshot after = reg.snapshot();
    mrq::obs::setMetricsEnabled(false);

    const double n = static_cast<double>(steps);
    auto delta = [&](const std::string& name) {
        return static_cast<double>(counter(after, name) -
                                   counter(before, name));
    };
    std::map<std::string, double> out;
    for (std::size_t k = 0; k < mrq::kernels::kKernelCount; ++k) {
        const char* slug =
            mrq::kernels::kernelCost(static_cast<mrq::kernels::KernelId>(k))
                .slug;
        out[std::string("kernels.") + slug + ".elems_per_step"] =
            delta(std::string("kernel.") + slug + ".elems") / n;
    }
    out["runtime.pool.regions_per_step"] =
        delta("runtime.pool.regions") / n;
    out["runtime.pool.chunks_per_step"] = delta("runtime.pool.chunks") / n;
    for (const char* t : {"queue_wait", "executor_busy"}) {
        const std::string name = std::string("runtime.pool.") + t;
        out[name + "_ms"] = static_cast<double>(timingNs(after, name) -
                                                timingNs(before, name)) /
                            1e6 / n;
    }
    const double hits = delta("nn.proj_cache.hits");
    const double misses = delta("nn.proj_cache.misses");
    out["core.proj_cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    out["core.proj_cache.misses_per_step"] = misses / n;
    return out;
}

std::string
fingerprint(const Args& a, std::size_t nproc, std::size_t threads,
            std::size_t steps)
{
    mrq::obs::RunManifest m;
    m.run = "perfbench." + a.workload;
    m.seed = a.seed;
    mrq::obs::applyBuildProvenance(&m);
    m.add("cpu_model", cpuModel());
    m.add("nproc", std::to_string(nproc));
    m.add("pool_threads", std::to_string(threads));
    m.add("mrq_threads", mrq::obs::envValue("MRQ_THREADS", "unset"));
    m.add("steps", std::to_string(steps));
    m.add("smoke", a.smoke ? "1" : "0");
    return mrq::obs::manifestJson(m);
}

int
run(const Args& a, const Clocks& main_start)
{
    const std::vector<std::string> knobs = forbiddenKnobs();
    if (!knobs.empty()) {
        std::string list;
        for (const std::string& k : knobs)
            list += " " + k;
        std::fprintf(stderr,
                     "perfbench_measure: refusing to measure with library "
                     "knobs set:%s\n",
                     list.c_str());
        return 3;
    }
    // At least 100 step groups, so 10 or more lie beyond the p90,
    // rounded up to whole rung rotations (8 or 20 steps).
    constexpr std::size_t kStepQuantum = 40;
    const std::size_t group = workloadStepGroup(a.workload);
    const double nominal =
        a.smoke ? 0.0 : a.seconds * workloadStepsPerSecond(a.workload);
    const std::size_t steps =
        (std::max<std::size_t>(100 * group,
                               static_cast<std::size_t>(nominal)) +
         kStepQuantum - 1) /
        kStepQuantum * kStepQuantum;
    const std::size_t nproc = onlineCpus();
    std::size_t threads = workloadThreads(a.workload, nproc);
    if (mrq::obs::envSet("MRQ_THREADS")) {
        const long v = mrq::obs::envLong("MRQ_THREADS", 0);
        if (v < 1)
            usage("MRQ_THREADS must be a positive integer");
        threads = static_cast<std::size_t>(v);
    }
    mrq::ThreadPool::instance().resize(threads);
    std::filesystem::create_directories(a.workDir);

    WorkloadParams params;
    params.seed = a.seed;
    params.smoke = a.smoke;
    params.workDir = a.workDir;

    Checks checks;
    Times setups;
    Times times;
    std::string traced_json;
    std::uint64_t digest = 0;
    std::size_t samples_per_step = 0;

    // The first set-up counts from main.
    auto timed_setup = [&](bool from_main) {
        const Clocks c0 = from_main ? main_start : Clocks::start();
        auto w = makeWorkload(a.workload, params);
        setups.add(c0, Clocks::end());
        return w;
    };

    if (a.trace == 0) {
        // Set up several times; setup_s is their median.
        const int setups = a.smoke ? 1 : 3;
        std::unique_ptr<Workload> w;
        for (int r = 0; r < setups; ++r) {
            w.reset();
            w = timed_setup(r == 0);
        }
        times = timedSteps(*w, 0, steps, nullptr, -1, a.corrupt, &checks);
        digest = w->digest();
        samples_per_step = w->samplesPerStep();
    } else {
        std::uint64_t untraced_digest = 0;
        Times untraced;
        {
            auto w = timed_setup(true);
            untraced = timedSteps(*w, 0, steps, nullptr, -1, false, &checks);
            untraced_digest = w->digest();
        }
        Tracer tracer;
        params.tracer = &tracer;
        params.delaySpan = a.delaySpan;
        params.delayNs = a.delayUs * 1000;
        const int step_span = tracer.id("step");
        auto w = makeWorkload(a.workload, params);
        // The heap totals spans read advance only while some heap hook
        // is armed; the sampling profiler at its coarsest interval
        // arms them at the cost of about one sample per GiB.
        mrq::obs::startHeapProfiler(std::int64_t{1} << 30);
        tracer.setArmed(true);
        times = timedSteps(*w, 0, steps, &tracer, step_span, a.corrupt,
                           &checks);
        tracer.setArmed(false);
        mrq::obs::stopHeapProfiler();
        digest = w->digest();
        samples_per_step = w->samplesPerStep();
        checks.record(digest == untraced_digest,
                      "traced digest " + hex(digest) +
                          " differs from untraced " + hex(untraced_digest));
        if (!a.delaySpan.empty()) {
            bool found = false;
            for (const std::string& n : tracer.names())
                found = found || n == a.delaySpan;
            if (!found)
                usage("--delay-span names no span of this workload: " +
                      a.delaySpan);
        }
        const std::map<std::string, double> values = w->layerValues();
        const std::map<std::string, double> counts =
            countingPass(*w, steps, w->rotation(), &checks);

        std::ostringstream os;
        os << '{' << untraced.json("untraced_")
           << ",\"span_names\":[";
        for (std::size_t i = 0; i < tracer.names().size(); ++i)
            os << (i ? "," : "") << jsonString(tracer.names()[i]);
        os << "],\"spans\":[";
        const auto& spans = tracer.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord& s = spans[i];
            os << (i ? "," : "") << '[' << s.name << ',' << s.parent << ','
               << s.step << ',' << s.startNs << ',' << s.endNs << ','
               << s.allocBytes << ',' << s.allocCount << ']';
        }
        os << "],\"values\":" << jsonMap(values)
           << ",\"counts\":" << jsonMap(counts) << '}';
        traced_json = os.str();
    }

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);

    std::ofstream out(a.out, std::ios::trunc);
    out << "{\"fingerprint\":" << fingerprint(a, nproc, threads, steps)
        << ",\"workload\":" << jsonString(a.workload)
        << ",\"seed\":" << a.seed << ",\"trace\":" << a.trace
        << ",\"isa\":"
        << jsonString(mrq::kernels::isaName(mrq::kernels::activeIsa()))
        << ",\"pool_threads\":" << threads
        << ",\"samples_per_step\":" << samples_per_step
        << ",\"step_group\":" << group << ','
        << setups.json("setup_") << ',' << times.json("step_")
        << ",\"peak_rss_kib\":" << usage_now.ru_maxrss
        << ",\"attempted\":" << checks.attempted
        << ",\"failed\":" << checks.failed << ",\"failures\":[";
    for (std::size_t i = 0; i < checks.failures.size(); ++i)
        out << (i ? "," : "") << jsonString(checks.failures[i]);
    out << "],\"digest\":" << jsonString(hex(digest));
    if (!traced_json.empty())
        out << ",\"traced\":" << traced_json;
    out << "}\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "perfbench_measure: cannot write %s\n",
                     a.out.c_str());
        return 4;
    }
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    const perfbench::Clocks start = perfbench::Clocks::start();
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args, start);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
        return 1;
    }
}
