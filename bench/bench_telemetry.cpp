/**
 * @file
 * Telemetry overhead bench: the cost contract of the obs layer.
 * Disabled, every instrumentation site — KernelRegion,
 * recordKernelElems, the heap hook, an inert AllocGuard — must cost a
 * relaxed load and a branch (single-digit ns); the always-on flight
 * recorder and the heap profiler's sampling must tax a workload by
 * under 2% and 3%.  telemetry_tq_data gates the metrics tax of the
 * hottest real metrics site, TQ activation quantization, at under 3%.
 *
 * All numbers are wall-clock (timingValue), so the trajectory gate
 * checks only the deterministic pass/fail rows.  Overheads compare
 * min-of-N runs of the same deterministic workload, which filters
 * scheduler noise far better than means.
 */

#include <algorithm>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "kernels/roofline.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace mrq;

Tensor
randomTensor(std::vector<std::size_t> shape, Rng& rng)
{
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal());
    return t;
}

template <typename Fn>
double
bestOfMs(int reps, Fn&& fn)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep)
        best = std::min(best, mrq::bench::wallTimeMs(fn));
    return best;
}

} // namespace

MRQ_BENCH(telemetry_overhead, "Obs layer",
          "obs layer cost: disabled sites / flight recorder / heap "
          "profiler")
{
    // -- Disabled instrumentation-site cost ---------------------------
    // The harness runs cases with metrics forced on; flip them off to
    // measure the exact hot path a plain run (no MRQ_METRICS_OUT)
    // executes at every site.
    constexpr int kSites = 200000;
    const bool prev_metrics = obs::setMetricsEnabled(false);
    const double region_ms = bestOfMs(5, [] {
        for (int i = 0; i < kSites; ++i) {
            kernels::KernelRegion region(kernels::KernelId::AddRow,
                                         64);
        }
    });
    const double elems_ms = bestOfMs(5, [] {
        for (int i = 0; i < kSites; ++i)
            kernels::recordKernelElems(kernels::KernelId::TermPairs,
                                       64);
    });
    obs::setMetricsEnabled(prev_metrics);

    const double scale = 1e6 / kSites; // ms per batch -> ns per site.
    const double region_ns = region_ms * scale;
    const double elems_ns = elems_ms * scale;
    ctx.timingValue("disabled_kernel_region_ns", region_ns);
    ctx.timingValue("disabled_record_elems_ns", elems_ns);
    ctx.printf("  disabled site cost: region %.1fns, elems %.1fns\n",
               region_ns, elems_ns);
    // ~1-2ns each in practice; 100ns still proves "effectively free"
    // while staying robust to a throttled CI core.
    ctx.require(region_ns < 100.0 && elems_ns < 100.0,
                "disabled telemetry sites cost ~0");

    // -- Flight-recorder cost -----------------------------------------
    // The black box is on by default, so its per-event cost IS the
    // steady-state production tax.  Record sites fire at epoch/metric
    // cadence (tens per second), so gate the derived tax at a
    // hostile 10k events/s and require the raw record under 200ns.
    const bool prev_flight = obs::setFlightEnabled(true);
    const double flight_on_ms = bestOfMs(5, [] {
        for (int i = 0; i < kSites; ++i)
            obs::flightMark("bench.flight_site", i);
    });
    obs::setFlightEnabled(false);
    const double flight_off_ms = bestOfMs(5, [] {
        for (int i = 0; i < kSites; ++i)
            obs::flightMark("bench.flight_site", i);
    });
    obs::setFlightEnabled(prev_flight);
    const double flight_on_ns = flight_on_ms * scale;
    const double flight_off_ns = flight_off_ms * scale;
    const double flight_tax_pct =
        flight_on_ns * 10000.0 / 1e9 * 100.0; // 10k events/s.
    ctx.timingValue("flight_record_ns", flight_on_ns);
    ctx.timingValue("flight_disabled_ns", flight_off_ns);
    ctx.timingValue("flight_tax_10k_events_pct", flight_tax_pct);
    ctx.printf("  flight recorder: record %.1fns, disabled %.1fns -> "
               "%.4f%% tax at 10k events/s\n",
               flight_on_ns, flight_off_ns, flight_tax_pct);
    ctx.require(flight_on_ns < 200.0 && flight_off_ns < 100.0,
                "flight record cheap, disabled site ~0");
    ctx.require(flight_tax_pct < 2.0,
                "flight recorder steady-state tax under 2% at 10k "
                "events/s");

    // -- Heap profiler ------------------------------------------------
    // Two costs matter: the hook every interposed operator
    // new/delete runs must be ~0 while nothing is armed, and sampling
    // at the default byte interval must tax an allocating workload by
    // under 3%.  Skipped entirely under sanitizer builds, where the
    // replacement operators are not linked.
    if (obs::heapInterpositionActive()) {
        const bool was_heapprof = obs::heapProfilerRunning();
        if (was_heapprof)
            obs::stopHeapProfiler();

        // Disarmed hook cost, on a real heap pointer (the armed path
        // asks the allocator for its usable size).
        char* probe = new char[64];
        const double hook_ms = bestOfMs(5, [&] {
            for (int i = 0; i < kSites; ++i)
                obs::detail::heapOnAlloc(probe, 64);
        });
        delete[] probe;
        const double hook_ns = hook_ms * scale;
        ctx.timingValue("disabled_heap_hook_ns", hook_ns);
        ctx.printf("  disabled heap hook: %.1fns\n", hook_ns);
        ctx.require(hook_ns < 100.0, "disabled heap hook costs ~0");

        // Full new/delete round trip through the replacement
        // operators, disarmed vs armed (informational: the allocator
        // itself dominates both arms).
        const auto churn = [] {
            for (int i = 0; i < kSites; ++i)
                delete[] new char[64];
        };
        const double nd_off_ms = bestOfMs(5, churn);
        obs::startHeapProfiler();
        const double nd_on_ms = bestOfMs(5, churn);
        obs::stopHeapProfiler();

        // An instrumented workload that allocates: the matmul loop
        // allocates its result tensors, so the sampler actually fires.
        Rng rng(321);
        const std::size_t dim = ctx.quick() ? 160 : 256;
        const Tensor a = randomTensor({dim, dim}, rng);
        const Tensor b = randomTensor({dim, dim}, rng);
        const int iters = ctx.quick() ? 8 : 16;
        const auto workload = [&] {
            for (int i = 0; i < iters; ++i)
                (void)matmul(a, b);
        };
        workload(); // touch caches before either measured arm

        // Interleave the armed/disarmed workload arms: measuring one
        // arm wholly before the other lets CPU frequency drift land
        // on a single side and fake a tax (or hide one).  The gate
        // threshold (3% of a ~4ms loop) is ~100us — well inside
        // scheduler noise for any single run — so each arm takes the
        // min over enough reps to filter one-sided spikes.
        const int heap_reps = 8;
        double heap_on_ms = 0.0;
        double heap_off_ms = 0.0;
        double heap_tax_best = 0.0;
        for (int pass = 0; pass < 3; ++pass) {
            obs::startHeapProfiler();
            const double on = bestOfMs(heap_reps, workload);
            obs::stopHeapProfiler();
            const double off = bestOfMs(heap_reps, workload);
            // Tax of THIS pass: the two arms ran back to back, so
            // drift mostly cancels inside a pass.  The gate takes the
            // best pass — a single quiet pass proves the true tax.
            const double tax =
                off > 0.0
                    ? std::max(0.0, (on - off) / off * 100.0)
                    : 0.0;
            if (pass == 0 || tax < heap_tax_best) {
                heap_tax_best = tax;
                heap_on_ms = on;
                heap_off_ms = off;
            }
        }
        ctx.timingValue("new_delete_disarmed_ns", nd_off_ms * scale);
        ctx.timingValue("new_delete_armed_ns", nd_on_ms * scale);
        ctx.printf("  new/delete round trip: disarmed %.1fns, armed "
                   "%.1fns\n",
                   nd_off_ms * scale, nd_on_ms * scale);

        // Workload A/B at the default interval: heap_tax_best is the
        // quietest of the interleaved passes above.
        const double heap_tax_pct = heap_tax_best;
        ctx.timingValue("workload_heapprof_ms", heap_on_ms);
        ctx.timingValue("workload_heapprof_base_ms", heap_off_ms);
        ctx.timingValue("heapprof_tax_pct", heap_tax_pct);
        ctx.printf("  heap sampling tax on the matmul loop: %.2f%% "
                   "(%.2fms -> %.2fms at the default interval)\n",
                   heap_tax_pct, heap_off_ms, heap_on_ms);
        ctx.require(heap_tax_pct < 3.0,
                    "heap sampling tax under 3% at the default "
                    "interval");

        // Inert no-alloc guard (mode Off): the cost every guarded
        // hot path pays in a plain run.
        const obs::AllocGuardMode prev_mode =
            obs::setAllocGuardMode(obs::AllocGuardMode::Off);
        const double guard_ms = bestOfMs(5, [] {
            for (int i = 0; i < kSites; ++i) {
                obs::AllocGuard guard("bench.telemetry_guard");
            }
        });
        obs::setAllocGuardMode(prev_mode);
        const double guard_ns = guard_ms * scale;
        ctx.timingValue("disabled_alloc_guard_ns", guard_ns);
        ctx.printf("  inert alloc guard: %.1fns\n", guard_ns);
        ctx.require(guard_ns < 100.0, "inert alloc guard costs ~0");

        if (was_heapprof)
            obs::startHeapProfilerFromEnv();
    }
}

/**
 * Telemetry tax on the TQ data path.  fakeQuantData in TQ mode is the
 * hottest metrics site of a real step
 * (core.tq.data_kept_terms_per_value); it folds a per-chunk
 * kept-count histogram into the registry, so metrics on must cost
 * under 3% over metrics off on a resnet-sized activation tensor.
 * Arms interleave and the gate takes the quietest pass, as the
 * heap-sampling gate of telemetry_overhead does.  A case of its own
 * so telemetry_overhead's exact metrics and heap resources stay as
 * they were.
 */
MRQ_BENCH(telemetry_tq_data, "Obs layer",
          "metrics tax on the TQ activation path: on vs off")
{
    Rng rng(322);
    Tensor act({100, 16, 12, 12});
    for (std::size_t i = 0; i < act.size(); ++i)
        act[i] = static_cast<float>(rng.uniform()) * 1.4f - 0.2f;
    SubModelConfig cfg;
    cfg.mode = QuantMode::Tq;
    cfg.bits = 5;
    cfg.beta = 2;
    const auto project = [&] {
        for (int i = 0; i < 8; ++i)
            (void)fakeQuantData(act, 1.0f, cfg);
    };
    const bool prev_metrics = obs::setMetricsEnabled(true);
    project(); // build the level table, touch caches
    double on_ms = 0.0;
    double off_ms = 0.0;
    double tax_best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
        obs::setMetricsEnabled(true);
        const double on = bestOfMs(8, project);
        obs::setMetricsEnabled(false);
        const double off = bestOfMs(8, project);
        const double tax =
            off > 0.0 ? std::max(0.0, (on - off) / off * 100.0) : 0.0;
        if (pass == 0 || tax < tax_best) {
            tax_best = tax;
            on_ms = on;
            off_ms = off;
        }
    }
    obs::setMetricsEnabled(prev_metrics);
    const double per_value_ns =
        off_ms * 1e6 / (8.0 * static_cast<double>(act.size()));
    ctx.timingValue("tq_data_metrics_on_ms", on_ms);
    ctx.timingValue("tq_data_metrics_off_ms", off_ms);
    ctx.timingValue("tq_data_ns_per_value", per_value_ns);
    ctx.timingValue("tq_data_metrics_tax_pct", tax_best);
    ctx.printf("  TQ data path metrics tax: %.2f%% (%.2fms -> %.2fms "
               "per 8 projections, %.2fns/value)\n",
               tax_best, off_ms, on_ms, per_value_ns);
    ctx.require(tax_best < 3.0, "TQ data-path metrics tax under 3%");
}
