// Google-benchmark microbenchmarks of the simulator substrate itself: how
// fast the host executes simulated kernels, CPU levels, and merges. These
// measure the *reproduction harness*, not the paper's system — wall-clock
// throughput of the simulation determines how large an n the figure benches
// can sweep.
#include <benchmark/benchmark.h>

#include <thread>

#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "platforms/platforms.hpp"
#include "sim/device.hpp"
#include "util/makespan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hpu;

// Pool workers for the pooled runs: nproc − 1 plus the calling thread,
// the executors' default.
std::int64_t pooled_workers() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 1 ? static_cast<std::int64_t>(hc) - 1 : 0;
}

// Arguments: items (tasks), pool workers. With 0 workers the launch or level
// runs inline. Pooled, it is one pool batch, so the run also pays the batch
// submit/wake/complete cost and the block folds that inline runs cannot
// see. 2^21 is mergesort's deepest level at n = 2^22.
void BM_DeviceLaunch(benchmark::State& state) {
    util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
    sim::Device dev(platforms::hpu1().gpu, &pool);
    const auto items = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        auto r = dev.launch(items, [](sim::WorkItem& wi) { wi.charge_compute(1); });
        benchmark::DoNotOptimize(r.time);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(items));
}
BENCHMARK(BM_DeviceLaunch)
    ->Args({1 << 10, 0})
    ->Args({1 << 14, 0})
    ->Args({1 << 18, 0})
    ->Args({1 << 21, pooled_workers()})
    ->UseRealTime();

void BM_CpuLevel(benchmark::State& state) {
    util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
    sim::CpuUnit cpu(platforms::hpu1().cpu, &pool);
    const auto tasks = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        auto r = cpu.run_level(tasks, [](std::uint64_t, sim::OpCounter& ops) {
            ops.charge_compute(8);
        });
        benchmark::DoNotOptimize(r.time);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_CpuLevel)
    ->Args({1 << 10, 0})
    ->Args({1 << 14, 0})
    ->Args({1 << 18, 0})
    ->Args({1 << 21, pooled_workers()})
    ->UseRealTime();

void BM_MakespanSkewed(benchmark::State& state) {
    util::Rng rng(1);
    std::vector<std::uint64_t> costs(static_cast<std::size_t>(state.range(0)));
    for (auto& c : costs) c = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
    for (auto _ : state) {
        benchmark::DoNotOptimize(util::makespan(costs, 4));
    }
}
BENCHMARK(BM_MakespanSkewed)->Arg(1 << 10)->Arg(1 << 16);

void BM_FunctionalMergesortSequential(benchmark::State& state) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    sim::CpuUnit cpu(platforms::hpu1().cpu);
    algos::MergesortPlain<std::int32_t> alg;
    util::Rng rng(2);
    const auto base = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    for (auto _ : state) {
        auto d = base;
        auto r = core::run_sequential(cpu, alg, std::span(d));
        benchmark::DoNotOptimize(r.total);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FunctionalMergesortSequential)->Arg(1 << 12)->Arg(1 << 16);

void BM_AnalyticAdvancedHybrid(benchmark::State& state) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    algos::MergesortCoalesced<std::int32_t> alg;
    core::AdvancedOptions adv;
    adv.exec.functional = false;
    std::vector<std::int32_t> dummy(n);
    for (auto _ : state) {
        sim::Hpu h(platforms::hpu1());
        auto r = core::run_advanced_hybrid(h, alg, std::span(dummy), 0.17, 10, adv);
        benchmark::DoNotOptimize(r.total);
    }
}
BENCHMARK(BM_AnalyticAdvancedHybrid)->Arg(1 << 20)->Arg(1 << 24);

}  // namespace

BENCHMARK_MAIN();
