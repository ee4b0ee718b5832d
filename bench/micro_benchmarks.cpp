// Google-benchmark microbenchmarks of the simulator substrate itself: how
// fast the host executes simulated kernels, CPU levels, pool batches, the
// merge kernel, the quickhull partition, the dynamic-tree engine, the §6.3
// layout layer and trace recording. These measure the *reproduction
// harness*, not the paper's system — wall-clock throughput of the
// simulation determines how large an n the figure benches can sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <thread>

#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "platforms/platforms.hpp"
#include "sim/device.hpp"
#include "trace/export.hpp"
#include "util/makespan.hpp"
#include "util/merge_path.hpp"
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

// The pool layer alone: one util::ThreadPool::parallel_for batch with an
// empty body, at the widths of mergesort's levels at n = 2^22 (16 to 2^21
// tasks). Arguments: items, pool workers (nproc - 1). The batch pays the
// submit, the workers' wake-up, their chunk claims and the completion
// wait, which is what a pooled CPU level or device launch adds to its
// bodies.
void BM_PoolBatch(benchmark::State& state) {
    util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
    const auto items = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        pool.parallel_for(items, [](std::size_t) {});
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(items));
}
BENCHMARK(BM_PoolBatch)
    ->ArgsProduct({{1 << 4, 1 << 10, 1 << 16, 1 << 21}, {pooled_workers()}})
    ->UseRealTime();

// The merge kernel alone (DESIGN.md §15): util::merge_segments of two
// sorted runs of n/2 int32 keys each, without the simulator or the
// executors. The input classes stress different paths of the kernel:
//
//   random     two independently sorted uniform runs (the generic case)
//   presorted  run A entirely <= run B: already merged, the bulk tails
//              dominate and memcpy throughput is the ceiling
//   reverse    run A entirely > run B: the output is B then A, the
//              branchless loop drains one side before the tail kicks in
//   dups       keys from an 8-value range: the stability tie-break is on
//              every comparison's hot path
//
// Arguments: merged size n, parts. One part is the serial blocked loop;
// workers + 1 parts are Merge Path segments across a pool of nproc − 1
// workers (at least one) and the calling thread, the participant count
// the engine's merges target. Items are the merged elements.
enum class MergeInput { kRandom, kPresorted, kReverse, kDups };

std::int64_t merge_workers() { return std::max<std::int64_t>(pooled_workers(), 1); }

void BM_MergeSegments(benchmark::State& state, MergeInput input) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    const auto parts = static_cast<std::size_t>(state.range(1));
    const std::uint64_t half = n / 2;
    const std::int64_t hi = input == MergeInput::kDups ? 7 : static_cast<std::int64_t>(2 * n);
    util::Rng rng(n ^ static_cast<std::uint64_t>(input));
    std::vector<std::int32_t> runs(2 * half);
    // Run [at, at + half) of keys base + [0, hi], sorted.
    const auto fill = [&](std::uint64_t at, std::int64_t base) {
        const auto first = runs.begin() + static_cast<std::ptrdiff_t>(at);
        for (auto it = first; it != first + static_cast<std::ptrdiff_t>(half); ++it) {
            *it = static_cast<std::int32_t>(base + rng.uniform_int(0, hi));
        }
        std::sort(first, first + static_cast<std::ptrdiff_t>(half));
    };
    fill(0, input == MergeInput::kReverse ? hi + 1 : 0);
    fill(half, input == MergeInput::kPresorted ? hi + 1 : 0);
    std::vector<std::int32_t> dst(runs.size());
    util::ThreadPool pool(static_cast<std::size_t>(merge_workers()));
    for (auto _ : state) {
        util::merge_segments(&pool, runs.data(), half, runs.data() + half, half, dst.data(),
                             std::less<std::int32_t>{}, parts);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
// Merged sizes 2^12 .. 2^20 by the two part counts, for every input class.
const std::vector<std::vector<std::int64_t>> kMergeArgs = {
    {1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}, {1, merge_workers() + 1}};
BENCHMARK_CAPTURE(BM_MergeSegments, random, MergeInput::kRandom)
    ->ArgsProduct(kMergeArgs)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_MergeSegments, presorted, MergeInput::kPresorted)
    ->ArgsProduct(kMergeArgs)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_MergeSegments, reverse, MergeInput::kReverse)
    ->ArgsProduct(kMergeArgs)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_MergeSegments, dups, MergeInput::kDups)
    ->ArgsProduct(kMergeArgs)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The trace layer alone: the spans of one traced, profiled and pooled
// run_advanced_hybrid (MergesortCoalesced, 2^20 keys, HPU1) recorded into a
// fresh session, wall stamps included, and exported as Chrome JSON. Items
// are the spans.
void BM_TraceRecord(benchmark::State& state) {
    constexpr std::size_t kN = 1 << 20;
    util::Rng rng(6);
    std::vector<std::int32_t> data = rng.int_vector(kN, 0, 2 * kN);
    algos::MergesortCoalesced<std::int32_t> alg;
    util::ThreadPool pool(static_cast<std::size_t>(pooled_workers()));
    sim::Hpu h(platforms::hpu1(), &pool);
    trace::TraceSession run;
    core::AdvancedOptions adv;
    adv.exec.trace = &run;
    adv.exec.profile = true;
    core::run_advanced_hybrid(h, alg, std::span(data), 0.17, 10, adv);
    for (auto _ : state) {
        trace::TraceSession session;
        for (const trace::Span& s : run.spans()) {
            const trace::SpanId id = session.record(s.kind, s.unit, s.label, s.start,
                                                    s.duration(), s.attrs, s.parent);
            if (s.wall_ns != 0) session.annotate_wall(id, s.wall_start_ns, s.wall_ns);
        }
        std::ostringstream os;
        trace::export_chrome(session, os);
        benchmark::DoNotOptimize(os.tellp());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(run.spans().size()));
}
BENCHMARK(BM_TraceRecord)->Unit(benchmark::kMillisecond)->UseRealTime();

// Quickhull's divide, the host data work of the irregular workload: the
// two level-0 divides over n points on a circle (every point stays a
// candidate, so each extent holds about n/2). Arguments: points, pool
// workers. With workers the pool is bound as the executors bind it, so an
// extent of 2^15 points or more runs its passes in blocks across the pool;
// with 0 workers the divide runs serially.
void BM_QuickhullDivide(benchmark::State& state) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
    util::Rng rng(3);
    std::vector<algos::Pt> input(n);
    for (auto& p : input) {
        const double th = rng.uniform_real(0.0, 2.0 * 3.14159265358979323846);
        p = {std::llround(1e9 * std::cos(th)), std::llround(1e9 * std::sin(th))};
    }
    algos::Quickhull qh;
    qh.prepare(n);
    qh.bind_exec(util::MergeExec{&pool, true});
    std::vector<algos::Pt> data(n);
    core::TaskDesc kids[4];
    for (auto _ : state) {
        state.PauseTiming();
        data = input;
        sim::OpCounter ops;
        const core::TaskList roots = qh.root_tasks(std::span(data), ops);
        state.ResumeTiming();
        for (std::size_t r = 0; r < roots.tasks.size(); ++r) {
            core::ChildSlots children(kids + 2 * r, 2);
            qh.divide_task(std::span(data), roots.tasks[r], 0, children, ops);
        }
        benchmark::DoNotOptimize(kids);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuickhullDivide)
    ->Args({1 << 16, 0})
    ->Args({1 << 16, pooled_workers()})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, pooled_workers()})
    ->UseRealTime();

// The dynamic-tree engine (core/irregular.hpp) end to end: Karatsuba on
// two operands of 2^12 coefficients, inline (no pool), under multicore and
// the advanced hybrid, whose split levels first predict every task's
// charge. Items are the tasks of the expand sweep, so items/s reads as the
// engine's per-task rate including the bodies' data work.
enum class IrregularExecutor { kMulticore, kAdvanced };

void BM_IrregularRun(benchmark::State& state, IrregularExecutor executor) {
    constexpr std::size_t kCoefficients = 1 << 12;
    util::Rng rng(4);
    const auto coefficients = rng.int_vector(2 * kCoefficients, -100, 100);
    const std::vector<std::int64_t> input(coefficients.begin(), coefficients.end());
    algos::KaratsubaArray alg;
    sim::Hpu h(platforms::hpu1());
    std::vector<std::int64_t> data;
    std::uint64_t tasks = 0;
    for (auto _ : state) {
        data = input;
        const core::ExecReport r =
            executor == IrregularExecutor::kMulticore
                ? core::run_multicore(h.cpu(), alg, std::span(data))
                : core::run_advanced_hybrid(h, alg, std::span(data), 0.5, 1);
        tasks = r.tasks_spawned;
        benchmark::DoNotOptimize(r.total);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(tasks));
}
BENCHMARK_CAPTURE(BM_IrregularRun, multicore, IrregularExecutor::kMulticore)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_IrregularRun, advanced, IrregularExecutor::kAdvanced)
    ->Unit(benchmark::kMillisecond);

// The §6.3 coalesced mergesort's layout layer end to end: MergesortCoalesced
// on 2^20 uniform int32 keys under run_gpu (every level on the device in the
// interleaved layout, then the un-interleave) and the basic hybrid (device
// levels to the crossover, the un-interleave hook, then the CPU levels).
// Argument: pool workers (0 = inline). Items are the elements sorted.
enum class CoalescedExecutor { kGpu, kBasic };

void BM_CoalescedRun(benchmark::State& state, CoalescedExecutor executor) {
    constexpr std::size_t kN = 1 << 20;
    util::Rng rng(5);
    const std::vector<std::int32_t> input = rng.int_vector(kN, 0, 2 * kN);
    algos::MergesortCoalesced<std::int32_t> alg;
    util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
    sim::Hpu h(platforms::hpu1(), &pool);
    std::vector<std::int32_t> data;
    for (auto _ : state) {
        data = input;
        const core::ExecReport r = executor == CoalescedExecutor::kGpu
                                       ? core::run_gpu(h, alg, std::span(data))
                                       : core::run_basic_hybrid(h, alg, std::span(data));
        benchmark::DoNotOptimize(r.total);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kN));
}
BENCHMARK_CAPTURE(BM_CoalescedRun, gpu, CoalescedExecutor::kGpu)
    ->Arg(0)
    ->Arg(pooled_workers())
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_CoalescedRun, basic, CoalescedExecutor::kBasic)
    ->Arg(0)
    ->Arg(pooled_workers())
    ->Unit(benchmark::kMillisecond)
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
