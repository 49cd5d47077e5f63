/**
 * @file
 * Bench-harness tests: robust statistics on known sequences, label
 * slugification, BENCH_*.json schema round-trips, quick-tier
 * determinism of the registered-case runner (two runs identical
 * modulo timing), metrics-snapshot capture, require() failure
 * propagation, and the tools/bench_compare.py exit-code contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/harness.hpp"
#include "obs/metrics.hpp"

#ifndef MRQ_SOURCE_DIR
#define MRQ_SOURCE_DIR "."
#endif

namespace mrq {
namespace bench {
namespace {

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const char* name)
{
    return std::string(::testing::TempDir()) + name;
}

// ------------------------------------------------------------------
// Robust statistics
// ------------------------------------------------------------------

TEST(BenchStats, MedianAndMadOddCount)
{
    // median 3, deviations {2, 1, 0, 1, 2} -> MAD 1.
    const RobustStats s = robustStats({5.0, 1.0, 3.0, 2.0, 4.0});
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.mad, 1.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_EQ(s.outliers, 0u);
}

TEST(BenchStats, MedianEvenCount)
{
    const RobustStats s = robustStats({1.0, 2.0, 3.0, 10.0});
    EXPECT_DOUBLE_EQ(s.median, 2.5);
    EXPECT_DOUBLE_EQ(s.mean, 4.0);
}

TEST(BenchStats, OutlierFlaggedBeyondMadFence)
{
    // Median 2, MAD 1; fence = 3.5 * 1.4826 ~ 5.19.  The 100.0
    // sample deviates by 98 and must be flagged; nothing else is.
    const RobustStats s =
        robustStats({1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 100.0});
    EXPECT_EQ(s.outliers, 1u);
    EXPECT_DOUBLE_EQ(s.median, 2.0);
}

TEST(BenchStats, ConstantSamplesHaveZeroMadAndNoOutliers)
{
    const RobustStats s = robustStats({7.0, 7.0, 7.0});
    EXPECT_DOUBLE_EQ(s.median, 7.0);
    EXPECT_DOUBLE_EQ(s.mad, 0.0);
    EXPECT_EQ(s.outliers, 0u);
}

TEST(BenchStats, EmptyAndSingle)
{
    EXPECT_EQ(robustStats({}).count, 0u);
    const RobustStats one = robustStats({4.25});
    EXPECT_EQ(one.count, 1u);
    EXPECT_DOUBLE_EQ(one.median, 4.25);
    EXPECT_DOUBLE_EQ(one.mad, 0.0);
    EXPECT_EQ(one.outliers, 0u);
}

TEST(BenchHarness, SlugifyLabels)
{
    EXPECT_EQ(slugify("mean accuracy with KD (%)"),
              "mean_accuracy_with_kd");
    EXPECT_EQ(slugify("128x128 latency ms"), "128x128_latency_ms");
    EXPECT_EQ(slugify("---"), "value");
    EXPECT_EQ(slugify("Already_fine"), "already_fine");
}

// ------------------------------------------------------------------
// Schema round-trip
// ------------------------------------------------------------------

BenchReport
makeSampleReport()
{
    BenchReport report;
    report.suite = "unit";
    report.manifest.run = "bench.unit";
    report.manifest.seed = 0;
    report.manifest.gitDescribe = "deadbee";
    report.manifest.add("tier", "quick");
    report.manifest.add("threads", "2");
    report.manifest.add("build", "Release");

    CaseRecord rec;
    rec.name = "sample_case";
    rec.reps = 3;
    rec.warmup = 1;
    rec.failed = false;
    rec.wallMs = robustStats({1.5, 2.5, 2.0});
    rec.values["accuracy"] = 0.875;
    rec.values["check_shape"] = 1.0;
    rec.values["tiny"] = 1e-9;
    rec.timingValues["epoch_s"] = 12.75;
    rec.metrics["hw.perf.cycles"] = MetricValue::ofInt(123456789012345);
    rec.metrics["train.eval.metric"] = MetricValue::ofDouble(0.1875);
    report.cases.push_back(rec);
    return report;
}

TEST(BenchReportTest, JsonRoundTripPreservesEverything)
{
    const BenchReport report = makeSampleReport();
    const std::string json = report.toJson();

    BenchReport parsed;
    std::string error;
    ASSERT_TRUE(parseBenchReport(json, &parsed, &error)) << error;

    EXPECT_EQ(parsed.suite, "unit");
    EXPECT_EQ(parsed.manifest.run, "bench.unit");
    EXPECT_EQ(parsed.manifest.gitDescribe, "deadbee");
    ASSERT_EQ(parsed.cases.size(), 1u);
    const CaseRecord& rec = parsed.cases[0];
    EXPECT_EQ(rec.name, "sample_case");
    EXPECT_EQ(rec.reps, 3);
    EXPECT_EQ(rec.warmup, 1);
    EXPECT_FALSE(rec.failed);
    EXPECT_DOUBLE_EQ(rec.wallMs.median, 2.0);
    EXPECT_EQ(rec.wallMs.count, 3u);
    EXPECT_DOUBLE_EQ(rec.values.at("accuracy"), 0.875);
    EXPECT_DOUBLE_EQ(rec.values.at("tiny"), 1e-9);
    EXPECT_DOUBLE_EQ(rec.timingValues.at("epoch_s"), 12.75);
    ASSERT_TRUE(rec.metrics.at("hw.perf.cycles").isInt);
    EXPECT_EQ(rec.metrics.at("hw.perf.cycles").i, 123456789012345);
    ASSERT_FALSE(rec.metrics.at("train.eval.metric").isInt);
    EXPECT_DOUBLE_EQ(rec.metrics.at("train.eval.metric").d, 0.1875);

    // Second round trip is byte-stable (shortest-round-trip doubles).
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(BenchReportTest, ResourcesRoundTripCarriesHeapKeys)
{
    BenchReport report = makeSampleReport();
    CaseRecord& rec = report.cases[0];
    rec.resources["alloc_bytes"] = 1048576.0;
    rec.resources["alloc_count"] = 42.0;
    rec.resources["peak_heap"] = 2097152.0;
    rec.resources["peak_rss_kb"] = 9000.0;

    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"alloc_bytes\""), std::string::npos);

    BenchReport parsed;
    std::string error;
    ASSERT_TRUE(parseBenchReport(json, &parsed, &error)) << error;
    ASSERT_EQ(parsed.cases.size(), 1u);
    const auto& res = parsed.cases[0].resources;
    EXPECT_DOUBLE_EQ(res.at("alloc_bytes"), 1048576.0);
    EXPECT_DOUBLE_EQ(res.at("alloc_count"), 42.0);
    EXPECT_DOUBLE_EQ(res.at("peak_heap"), 2097152.0);
    EXPECT_DOUBLE_EQ(res.at("peak_rss_kb"), 9000.0);
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(BenchReportTest, ParserToleratesOlderVersionsAndAbsentFields)
{
    // A v2 document (no heap keys) and a v1 document (no resources
    // at all) both parse: committed baselines survive schema bumps,
    // and absent keys surface as an empty map, never an error.
    const char* v2 =
        "{\"type\": \"bench\", \"version\": 2, \"suite\": \"unit\",\n"
        " \"manifest\": {\"type\": \"manifest\", \"run\": \"r\", "
        "\"seed\": 0, \"git\": \"d\"},\n"
        " \"cases\": [{\"name\": \"c\", \"reps\": 1, \"warmup\": 0,\n"
        "   \"failed\": false,\n"
        "   \"wall_ms\": {\"count\": 1, \"median\": 1.0, \"mad\": 0.0,"
        " \"min\": 1.0, \"max\": 1.0, \"mean\": 1.0, \"outliers\": 0},"
        "\n"
        "   \"values\": {}, \"timing_values\": {}, \"metrics\": {},\n"
        "   \"resources\": {\"peak_rss_kb\": 512}}]}\n";
    BenchReport parsed;
    std::string error;
    ASSERT_TRUE(parseBenchReport(v2, &parsed, &error)) << error;
    ASSERT_EQ(parsed.cases.size(), 1u);
    EXPECT_DOUBLE_EQ(parsed.cases[0].resources.at("peak_rss_kb"),
                     512.0);
    EXPECT_EQ(parsed.cases[0].resources.count("alloc_bytes"), 0u);

    const char* v1 =
        "{\"type\": \"bench\", \"version\": 1, \"suite\": \"unit\",\n"
        " \"manifest\": {\"type\": \"manifest\", \"run\": \"r\", "
        "\"seed\": 0, \"git\": \"d\"},\n"
        " \"cases\": [{\"name\": \"c\", \"reps\": 1, \"warmup\": 0,\n"
        "   \"failed\": false,\n"
        "   \"wall_ms\": {\"count\": 1, \"median\": 1.0, \"mad\": 0.0,"
        " \"min\": 1.0, \"max\": 1.0, \"mean\": 1.0, \"outliers\": 0},"
        "\n"
        "   \"values\": {}, \"timing_values\": {}, \"metrics\": {}}]}"
        "\n";
    BenchReport old;
    ASSERT_TRUE(parseBenchReport(v1, &old, &error)) << error;
    ASSERT_EQ(old.cases.size(), 1u);
    EXPECT_TRUE(old.cases[0].resources.empty());
}

TEST(BenchReportTest, ParserRejectsMalformedInput)
{
    BenchReport out;
    std::string error;
    EXPECT_FALSE(parseBenchReport("{", &out, &error));
    EXPECT_FALSE(parseBenchReport("[]", &out, &error));
    EXPECT_FALSE(parseBenchReport(
        "{\"type\": \"bench\", \"version\": 99, \"suite\": \"x\", "
        "\"manifest\": {}, \"cases\": []}",
        &out, &error));
    EXPECT_FALSE(error.empty());
}

TEST(BenchReportTest, WriteFailureReturnsFalse)
{
    const BenchReport report = makeSampleReport();
    EXPECT_FALSE(report.write("/proc/definitely/not/writable.json"));
}

// ------------------------------------------------------------------
// Registered-case runner
// ------------------------------------------------------------------

int g_body_runs = 0;

void
syntheticCase(BenchContext& ctx)
{
    ++g_body_runs;
    static obs::Counter counter("test.bench.synthetic_counter");
    counter.add(ctx.quick() ? 7 : 70);
    ctx.printf("synthetic table line\n");
    ctx.row("synthetic metric", ctx.quick() ? 0.25 : 2.5, "paper");
    ctx.value("raw_value", 42.0);
    ctx.timingValue("fake_ms", 1.25);
    ctx.require(true, "always holds");
}

void
failingCase(BenchContext& ctx)
{
    ctx.require(false, "always fails");
}

const bool g_registered =
    Registry::instance().add("ztest_synthetic", "Unit", "synthetic case",
                             &syntheticCase, defaultCase()) &&
    Registry::instance().add("ztest_failing", "Unit", "failing case",
                             &failingCase, heavyCase());

RunnerOptions
unitOptions(const std::string& out_path, const std::string& filter)
{
    RunnerOptions opts;
    opts.suite = "unit";
    opts.outPath = out_path;
    opts.filter = filter;
    opts.quick = true;
    return opts;
}

void
runAndParseInto(BenchReport* out, const std::string& out_path,
                const std::string& filter, int expected_exit)
{
    ASSERT_TRUE(g_registered);
    EXPECT_EQ(runRegisteredCases(unitOptions(out_path, filter)),
              expected_exit);
    std::string error;
    ASSERT_TRUE(parseBenchReport(readFile(out_path), out, &error))
        << error;
}

TEST(BenchRunner, CapturesValuesTimingAndMetrics)
{
    const std::string path = tempPath("bench_runner_capture.json");
    BenchReport parsed;
    runAndParseInto(&parsed, path, "ztest_synthetic", 0);

    ASSERT_EQ(parsed.cases.size(), 1u);
    const CaseRecord& rec = parsed.cases[0];
    EXPECT_EQ(rec.name, "ztest_synthetic");
    EXPECT_EQ(rec.reps, 3);
    EXPECT_EQ(rec.warmup, 1);
    EXPECT_FALSE(rec.failed);
    EXPECT_EQ(rec.wallMs.count, 3u);

    // Quick tier selected -> the quick-sized value was recorded.
    EXPECT_DOUBLE_EQ(rec.values.at("synthetic_metric"), 0.25);
    EXPECT_DOUBLE_EQ(rec.values.at("raw_value"), 42.0);
    EXPECT_DOUBLE_EQ(rec.values.at("check_always_holds"), 1.0);
    EXPECT_DOUBLE_EQ(rec.timingValues.at("fake_ms"), 1.25);

    // The registry was reset before each rep, so the snapshot holds
    // exactly one repetition's worth of the counter.
    ASSERT_TRUE(rec.metrics.count("test.bench.synthetic_counter"));
    EXPECT_EQ(rec.metrics.at("test.bench.synthetic_counter").i, 7);

    // Manifest stamped with tier and suite.
    EXPECT_EQ(parsed.suite, "unit");
    EXPECT_EQ(parsed.manifest.run, "bench.unit");
    bool saw_tier = false;
    for (const auto& [k, v] : parsed.manifest.entries)
        if (k == "tier") {
            saw_tier = true;
            EXPECT_EQ(v, "quick");
        }
    EXPECT_TRUE(saw_tier);
}

TEST(BenchRunner, QuickTierRunsAreIdenticalModuloTiming)
{
    const std::string path_a = tempPath("bench_runner_det_a.json");
    const std::string path_b = tempPath("bench_runner_det_b.json");
    BenchReport a, b;
    runAndParseInto(&a, path_a, "ztest_synthetic", 0);
    runAndParseInto(&b, path_b, "ztest_synthetic", 0);

    ASSERT_EQ(a.cases.size(), 1u);
    ASSERT_EQ(b.cases.size(), 1u);
    EXPECT_EQ(a.cases[0].values, b.cases[0].values);
    EXPECT_EQ(a.cases[0].timingValues, b.cases[0].timingValues);
    ASSERT_EQ(a.cases[0].metrics.size(), b.cases[0].metrics.size());
    for (const auto& [name, mv] : a.cases[0].metrics) {
        ASSERT_TRUE(b.cases[0].metrics.count(name)) << name;
        const MetricValue& other = b.cases[0].metrics.at(name);
        EXPECT_EQ(mv.isInt, other.isInt) << name;
        EXPECT_EQ(mv.i, other.i) << name;
        EXPECT_DOUBLE_EQ(mv.d, other.d) << name;
    }
}

TEST(BenchRunner, WarmupAndRepsRunTheBody)
{
    const std::string path = tempPath("bench_runner_reps.json");
    g_body_runs = 0;
    BenchReport parsed;
    runAndParseInto(&parsed, path, "ztest_synthetic", 0);
    // 1 warmup + 3 timed reps.
    EXPECT_EQ(g_body_runs, 4);
}

TEST(BenchRunner, FailedRequireFailsTheSuite)
{
    const std::string path = tempPath("bench_runner_fail.json");
    BenchReport parsed;
    runAndParseInto(&parsed, path, "ztest_failing", 1);
    ASSERT_EQ(parsed.cases.size(), 1u);
    EXPECT_TRUE(parsed.cases[0].failed);
    EXPECT_DOUBLE_EQ(parsed.cases[0].values.at("check_always_fails"),
                     0.0);
}

TEST(BenchRunner, NoMatchingCasesIsAnError)
{
    RunnerOptions opts =
        unitOptions(tempPath("bench_runner_none.json"),
                    "no_such_case_exists");
    EXPECT_EQ(runRegisteredCases(opts), 1);
}

// ------------------------------------------------------------------
// bench_compare.py exit-code contract
// ------------------------------------------------------------------

TEST(BenchCompare, ExitCodesOnIdenticalAndPerturbedRuns)
{
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";
    const std::string tool =
        std::string(MRQ_SOURCE_DIR) + "/tools/bench_compare.py";

    const std::string base = tempPath("bench_cmp_base.json");
    const std::string same = tempPath("bench_cmp_same.json");
    const std::string worse = tempPath("bench_cmp_worse.json");

    BenchReport report = makeSampleReport();
    ASSERT_TRUE(report.write(base));
    ASSERT_TRUE(report.write(same));
    report.cases[0].values["accuracy"] = 0.5; // deterministic drift
    ASSERT_TRUE(report.write(worse));

    const std::string quiet = " > /dev/null 2>&1";
    EXPECT_EQ(std::system(("python3 " + tool + " " + base + " " + same +
                           quiet)
                              .c_str()),
              0);
    EXPECT_NE(std::system(("python3 " + tool + " " + base + " " +
                           worse + quiet)
                              .c_str()),
              0);
}

TEST(BenchCompare, CheckResourcesGatesHeapGrowthButNotAbsence)
{
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";
    const std::string tool =
        std::string(MRQ_SOURCE_DIR) + "/tools/bench_compare.py";

    const std::string base = tempPath("bench_cmp_res_base.json");
    const std::string grown = tempPath("bench_cmp_res_grown.json");
    const std::string absent = tempPath("bench_cmp_res_absent.json");

    BenchReport report = makeSampleReport();
    report.cases[0].resources["alloc_bytes"] = 1000.0;
    ASSERT_TRUE(report.write(base));
    // 3x growth trips the default 2x noise gate...
    report.cases[0].resources["alloc_bytes"] = 3000.0;
    ASSERT_TRUE(report.write(grown));
    // ...but a run without heap accounting (sanitizer build, profiler
    // off) only notes the absent key.
    report.cases[0].resources.clear();
    ASSERT_TRUE(report.write(absent));

    const std::string quiet = " > /dev/null 2>&1";
    const std::string flags = " --check-resources ";
    EXPECT_EQ(std::system(("python3 " + tool + flags + base + " " +
                           base + quiet)
                              .c_str()),
              0);
    EXPECT_NE(std::system(("python3 " + tool + flags + base + " " +
                           grown + quiet)
                              .c_str()),
              0);
    EXPECT_EQ(std::system(("python3 " + tool + flags + base + " " +
                           absent + quiet)
                              .c_str()),
              0);
}

TEST(BenchCompare, TruncatedProfileDowngradesToDiagnostic)
{
    // heap_diff.py must exit 2 with a diagnostic (not a traceback)
    // on empty or truncated inputs; bench_compare treats that as
    // "attribution unavailable", not a gate failure.
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";
    const std::string dir = std::string(::testing::TempDir());
    const std::string empty = dir + "bench_cmp_empty.jsonl";
    const std::string truncated = dir + "bench_cmp_truncated.jsonl";
    { std::ofstream out(empty); }
    {
        std::ofstream out(truncated);
        out << "{\"type\": \"alloc_stack\", \"span\": \"\", "
               "\"kernel\": \"\", \"bytes\": 1, \"count\": 1, "
               "\"frames\": []}\n";
    }
    const std::string path =
        std::string(MRQ_SOURCE_DIR) + "/tools/heap_diff.py";
    for (const std::string& bad : {empty, truncated}) {
        const int rc = std::system(
            ("python3 " + path + " " + bad + " " + bad +
             " > /dev/null 2>&1")
                .c_str());
        ASSERT_TRUE(WIFEXITED(rc));
        EXPECT_EQ(WEXITSTATUS(rc), 2)
            << "heap_diff.py on " << bad
            << ": want the documented usage/parse exit, not a "
               "traceback (1)";
    }
}

} // namespace
} // namespace bench
} // namespace mrq
