#include "kernels/roofline.hpp"

#include <atomic>
#include <string>

namespace mrq {
namespace kernels {

namespace {

constexpr KernelCost kCosts[kKernelCount] = {
    // slug                 flops/elem  bytes/elem
    {"gemm_dot", 2.0, 8.0},          // fma per MAC; a + b streamed
    {"gemm_axpy", 2.0, 12.0},        // fma per MAC; x read, y r/w
    {"add_row", 1.0, 12.0},          // add; row read, y r/w
    {"add_scalar", 1.0, 8.0},        // add; y r/w
    {"lattice_quantize", 4.0, 8.0},  // scale+round+clamp; f32 in, i32 out
    {"lattice_dequant", 1.0, 8.0},   // mul; i32 in, f32 out
    {"lattice_round_trip", 5.0, 8.0},
    {"lstm_gates", 46.0, 44.0},      // 4 transcendentals @10 + 6 arith;
                                     // 4H z + 4H gates + c/h traffic
    {"term_pairs", 2.0, 3.0},        // shift+add; i16 exp + i8 sign
    {"bucket_sum", 2.0, 8.0},        // shift+add; i64 bucket
};

struct KernelMetricIds
{
    std::atomic<int> counter{-1};
    std::atomic<int> timing{-1};
};
KernelMetricIds g_ids[kKernelCount];

/** Kernel family currently executing (serial dispatch contexts only;
 *  -1 = none).  A bare relaxed atomic: the heap profiler reads it
 *  from inside the allocator. */
std::atomic<int> g_active_kernel{-1};

int
counterIdFor(std::size_t idx)
{
    int id = g_ids[idx].counter.load(std::memory_order_relaxed);
    if (id < 0) {
        id = obs::MetricsRegistry::instance().counterId(
            std::string("kernel.") + kCosts[idx].slug + ".elems");
        g_ids[idx].counter.store(id, std::memory_order_relaxed);
    }
    return id;
}

int
timingIdFor(std::size_t idx)
{
    int id = g_ids[idx].timing.load(std::memory_order_relaxed);
    if (id < 0) {
        id = obs::MetricsRegistry::instance().timingId(
            std::string("kernel.") + kCosts[idx].slug);
        g_ids[idx].timing.store(id, std::memory_order_relaxed);
    }
    return id;
}

} // namespace

const KernelCost&
kernelCost(KernelId id)
{
    return kCosts[static_cast<std::size_t>(id)];
}

int
activeKernelSampleTag()
{
    return g_active_kernel.load(std::memory_order_relaxed);
}

double
peakFlopsPerCycle(Isa isa)
{
    switch (isa) {
    case Isa::Avx2:
        return 16.0; // 8 f32 lanes x fma
    case Isa::Avx512:
        return 32.0; // 16 f32 lanes x fma
    case Isa::Generic:
    default:
        return 2.0; // one scalar fma per cycle
    }
}

void
recordKernelElems(KernelId id, std::int64_t elems)
{
    if (!obs::metricsEnabled() || elems <= 0)
        return;
    const std::size_t idx = static_cast<std::size_t>(id);
    obs::MetricsRegistry::instance().addCounter(counterIdFor(idx), elems);
}

namespace detail {

int
exchangeActiveKernelTag(int tag)
{
    return g_active_kernel.exchange(tag, std::memory_order_relaxed);
}

void
setActiveKernelTag(int tag)
{
    g_active_kernel.store(tag, std::memory_order_relaxed);
}

void
recordKernelRegion(KernelId id, std::int64_t elems, std::int64_t ns)
{
    if (!obs::metricsEnabled())
        return;
    const std::size_t idx = static_cast<std::size_t>(id);
    auto& reg = obs::MetricsRegistry::instance();
    if (elems > 0)
        reg.addCounter(counterIdFor(idx), elems);
    reg.recordTiming(timingIdFor(idx), ns);
}

} // namespace detail

} // namespace kernels
} // namespace mrq
