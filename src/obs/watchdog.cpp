#include "obs/watchdog.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/env.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

namespace mrq {
namespace obs {

WatchdogMode
watchdogModeFromEnv()
{
    const char* v = envValue("MRQ_WATCHDOG", nullptr);
    if (v == nullptr)
        return WatchdogMode::off;
    auto lower = [](char c) {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                    : c;
    };
    std::string s;
    for (const char* p = v; *p != '\0'; ++p)
        s.push_back(lower(*p));
    if (s == "strict")
        return WatchdogMode::strict;
    return truthy(v) ? WatchdogMode::on : WatchdogMode::off;
}

namespace {

/** Deterministic double rendering for alert details. */
std::string
formatValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

Watchdog::Watchdog()
{
    cfg_.mode = watchdogModeFromEnv();
}

Watchdog::Watchdog(const WatchdogConfig& config) : cfg_(config) {}

void
Watchdog::configure(const WatchdogConfig& config)
{
    cfg_ = config;
}

void
Watchdog::raise(const char* severity, const char* rule,
                const std::string& context, std::int64_t batch,
                const std::string& detail)
{
    ++alerts_;
    MetricsRegistry::instance().recordAlert(severity, rule, context,
                                            batch, detail);
    // Alert totals as counters (deterministic: rules fire on
    // deterministic values), so every metrics snapshot carries them,
    // not only the JSONL footer's alert list.
    MetricsRegistry::instance().addCounterNamed(
        std::string("watchdog.alerts.") + severity, 1);
    MetricsRegistry::instance().addCounterNamed(
        std::string("watchdog.rule.") + rule, 1);
    traceInstant(std::string("alert:") + rule, context + ": " + detail);
    logf("watchdog: [%s] %s at batch %lld (%s): %s", severity, rule,
         static_cast<long long>(batch), context.c_str(),
         detail.c_str());
    if (cfg_.mode == WatchdogMode::strict &&
        std::string(severity) == "fatal") {
        std::fprintf(stderr,
                     "mrq: watchdog: fatal alert [%s] at batch %lld "
                     "(%s): %s\n",
                     rule, static_cast<long long>(batch),
                     context.c_str(), detail.c_str());
        // std::exit skips the RunScope destructor; flush its sinks
        // first so the run that died still leaves its artifacts.
        flushActiveRunScope();
        std::exit(70);
    }
}

void
Watchdog::checkLoss(const std::string& context, std::int64_t batch,
                    double loss)
{
    if (!enabled())
        return;
    if (!std::isfinite(loss)) {
        raise("fatal", "nan_loss", context, batch,
              "loss=" + formatValue(loss));
        return;
    }
    std::deque<double>& window = lossWindows_[context];
    if (static_cast<int>(window.size()) >= cfg_.warmupBatches &&
        !window.empty()) {
        std::vector<double> sorted(window.begin(), window.end());
        const std::size_t mid = sorted.size() / 2;
        std::nth_element(sorted.begin(), sorted.begin() + mid,
                         sorted.end());
        const double median = sorted[mid];
        if (median > 0.0 && loss > cfg_.divergenceFactor * median)
            raise("warn", "loss_divergence", context, batch,
                  "loss=" + formatValue(loss) +
                      " median=" + formatValue(median) +
                      " factor=" + formatValue(cfg_.divergenceFactor));
    }
    window.push_back(loss);
    while (static_cast<int>(window.size()) > cfg_.medianWindow)
        window.pop_front();
}

void
Watchdog::checkRungMonotonicity(const std::string& context,
                                std::int64_t batch,
                                const std::vector<std::string>& names,
                                const std::vector<double>& metrics,
                                bool higher_is_better)
{
    if (!enabled() || metrics.size() < 2)
        return;
    const std::size_t n = std::min(names.size(), metrics.size());
    // Compare each rung against the best lower-budget rung so a
    // single dip flags once instead of cascading over every pair.
    double best = metrics[0];
    std::size_t best_i = 0;
    for (std::size_t i = 1; i < n; ++i) {
        const double gap = higher_is_better ? best - metrics[i]
                                            : metrics[i] - best;
        if (gap > cfg_.rungTolerance)
            raise("warn", "rung_inversion", context, batch,
                  "rung " + names[i] + "=" + formatValue(metrics[i]) +
                      " trails " + names[best_i] + "=" +
                      formatValue(best) + " by " + formatValue(gap) +
                      " (tol=" + formatValue(cfg_.rungTolerance) + ")");
        const bool improves = higher_is_better ? metrics[i] > best
                                               : metrics[i] < best;
        if (improves) {
            best = metrics[i];
            best_i = i;
        }
    }
}

void
Watchdog::checkCacheHitRate(const std::string& context,
                            std::int64_t batch, std::int64_t hits,
                            std::int64_t misses)
{
    if (!enabled())
        return;
    const std::int64_t lookups = hits + misses;
    if (lookups < cfg_.cacheMinLookups)
        return;
    const double rate = static_cast<double>(hits) /
                        static_cast<double>(lookups);
    if (rate < cfg_.cacheHitRateFloor)
        raise("warn", "cache_hit_rate_floor", context, batch,
              "hit_rate=" + formatValue(rate) + " (" +
                  std::to_string(hits) + "/" + std::to_string(lookups) +
                  ") floor=" + formatValue(cfg_.cacheHitRateFloor));
}

void
Watchdog::checkSqnr(const std::string& context, std::int64_t batch,
                    double sqnr_db)
{
    if (!enabled())
        return;
    std::deque<double>& window = sqnrWindows_[context];
    if (static_cast<int>(window.size()) >= cfg_.sqnrWarmup &&
        !window.empty()) {
        std::vector<double> sorted(window.begin(), window.end());
        const std::size_t mid = sorted.size() / 2;
        std::nth_element(sorted.begin(), sorted.begin() + mid,
                         sorted.end());
        const double median = sorted[mid];
        if (sqnr_db < median - cfg_.sqnrCollapseDb)
            raise("warn", "sqnr_collapse", context, batch,
                  "sqnr_db=" + formatValue(sqnr_db) +
                      " median=" + formatValue(median) +
                      " drop_db=" + formatValue(cfg_.sqnrCollapseDb));
    }
    window.push_back(sqnr_db);
    while (static_cast<int>(window.size()) > cfg_.sqnrWindow)
        window.pop_front();
}

void
Watchdog::checkSaturation(const std::string& context, std::int64_t batch,
                          double rate, std::int64_t samples)
{
    if (!enabled() || samples < cfg_.satMinSamples)
        return;
    if (rate > cfg_.satRateCeiling)
        raise("warn", "saturation_ceiling", context, batch,
              "rate=" + formatValue(rate) + " over " +
                  std::to_string(samples) +
                  " values, ceiling=" + formatValue(cfg_.satRateCeiling));
}

void
Watchdog::checkRungKl(const std::string& context, std::int64_t batch,
                      double kl)
{
    if (!enabled())
        return;
    if (!std::isfinite(kl) || kl > cfg_.rungKlFatal) {
        raise("fatal", "rung_kl_blowup", context, batch,
              "kl=" + formatValue(kl) +
                  " fatal_above=" + formatValue(cfg_.rungKlFatal));
        return;
    }
    if (kl > cfg_.rungKlWarn)
        raise("warn", "rung_kl_blowup", context, batch,
              "kl=" + formatValue(kl) +
                  " warn_above=" + formatValue(cfg_.rungKlWarn));
}

void
Watchdog::resetHistory()
{
    lossWindows_.clear();
    sqnrWindows_.clear();
    alerts_ = 0;
}

} // namespace obs
} // namespace mrq
