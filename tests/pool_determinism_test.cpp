// Pooled-vs-inline determinism sweep: the tentpole invariant of the
// host-parallel functional engine is that a util::ThreadPool accelerates
// wall-clock only. Every algorithm × executor × mode must produce
// bit-identical ExecReports, trace span trees, output arrays, and analysis
// findings whether the functional bodies ran inline (workers = 0) or
// across a pool (workers = hardware_concurrency). The sweep also pins the
// raw sim layer: Device launches with non-uniform item costs and CpuUnit
// levels keep their LaunchResult / LevelResult — including the
// per-category OpCounter split — exactly equal under pooling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/closest_pair.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/mergesort_blocked.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"
#include "util/makespan.hpp"
#include "util/thread_pool.hpp"

namespace hpu::core {
namespace {

std::size_t pooled_workers() {
    return std::max(2u, std::thread::hardware_concurrency());
}

/// Small machine tuned so deep levels span several waves (g = 64) and the
/// CPU schedules across several virtual cores — both pooled code paths get
/// real multi-chunk work.
sim::HpuParams small_hw() {
    sim::HpuParams hw = platforms::hpu1();
    hw.name = "determinism-sweep";
    hw.cpu.p = 4;
    hw.cpu.contention = 0.0;
    hw.gpu.g = 64;
    return hw;
}

struct AlgoCase {
    std::unique_ptr<LevelAlgorithm<std::int32_t>> alg;
    std::uint64_t base = 1;
};

std::vector<AlgoCase> algo_cases() {
    std::vector<AlgoCase> cases;
    cases.push_back({std::make_unique<algos::MergesortPlain<std::int32_t>>(), 1});
    cases.push_back({std::make_unique<algos::MergesortCoalesced<std::int32_t>>(), 1});
    cases.push_back({std::make_unique<algos::MergesortBlocked<std::int32_t>>(4), 4});
    cases.push_back(
        {std::make_unique<algos::DcSum<std::int32_t>>(algos::make_sum<std::int32_t>()), 1});
    cases.push_back(
        {std::make_unique<algos::DcMax<std::int32_t>>(algos::make_max<std::int32_t>()), 1});
    cases.push_back(
        {std::make_unique<algos::DcMin<std::int32_t>>(algos::make_min<std::int32_t>()), 1});
    return cases;
}

std::vector<std::int32_t> make_input(std::uint64_t n) {
    std::vector<std::int32_t> v(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = static_cast<std::int32_t>(x % 10000);
    }
    return v;
}

/// Everything one run produces that the invariant covers. Templated on the
/// element type so the irregular algorithms (Pt, int64) ride the same sweep.
template <typename T>
struct RunArtifacts {
    ExecReport rep;
    std::vector<trace::Span> spans;
    std::vector<T> out;
    std::vector<std::string> findings;
    std::uint64_t launches_checked = 0;
    std::uint64_t launches_skipped = 0;
    std::uint64_t findings_suppressed = 0;
};

constexpr const char* kExecutors[] = {"sequential", "multicore", "gpu",
                                      "basic",      "advanced",  "pipelined"};

template <typename T>
RunArtifacts<T> run_one(util::ThreadPool* pool, int executor, const LevelAlgorithm<T>& alg,
                        const std::vector<T>& input, bool functional) {
    sim::Hpu h(small_hw(), pool);
    trace::TraceSession ts;
    ExecOptions opts;
    opts.functional = functional;
    opts.validate = functional;  // analysis findings are part of the invariant
    opts.trace = &ts;

    RunArtifacts<T> art;
    art.out = input;
    std::span<T> data(art.out);
    switch (executor) {
        case 0: art.rep = run_sequential(h.cpu(), alg, data, opts); break;
        case 1: art.rep = run_multicore(h.cpu(), alg, data, opts); break;
        case 2: art.rep = run_gpu(h, alg, data, opts); break;
        case 3: art.rep = run_basic_hybrid(h, alg, data, opts); break;
        case 4: {
            AdvancedOptions adv;
            adv.exec = opts;
            art.rep = run_advanced_hybrid(h, alg, data, 0.3, 2, adv);
            break;
        }
        default: {
            PipelinedOptions pip;
            pip.chunks = 4;
            pip.exec = opts;
            art.rep = run_pipelined_hybrid(h, alg, data, 0.3, 2, pip);
            break;
        }
    }
    art.spans = ts.spans();
    for (const auto& f : art.rep.analysis.findings) art.findings.push_back(f.message());
    art.launches_checked = art.rep.analysis.launches_checked;
    art.launches_skipped = art.rep.analysis.launches_skipped;
    art.findings_suppressed = art.rep.analysis.findings_suppressed;
    return art;
}

template <typename T>
void expect_identical(const RunArtifacts<T>& a, const RunArtifacts<T>& b) {
    // ExecReport, field by field, exact (doubles included: the fold order
    // is pinned, so even floating maxima must match bit for bit).
    EXPECT_EQ(a.rep.total, b.rep.total);
    EXPECT_EQ(a.rep.cpu_busy, b.rep.cpu_busy);
    EXPECT_EQ(a.rep.gpu_busy, b.rep.gpu_busy);
    EXPECT_EQ(a.rep.transfer, b.rep.transfer);
    EXPECT_EQ(a.rep.finish, b.rep.finish);
    EXPECT_EQ(a.rep.levels_cpu, b.rep.levels_cpu);
    EXPECT_EQ(a.rep.levels_gpu, b.rep.levels_gpu);
    EXPECT_EQ(a.rep.alpha_effective, b.rep.alpha_effective);
    EXPECT_EQ(a.rep.chunks, b.rep.chunks);
    EXPECT_EQ(a.rep.tasks_spawned, b.rep.tasks_spawned);

    // Functional results.
    EXPECT_EQ(a.out, b.out);

    // Analysis findings.
    EXPECT_EQ(a.findings, b.findings);
    EXPECT_EQ(a.launches_checked, b.launches_checked);
    EXPECT_EQ(a.launches_skipped, b.launches_skipped);
    EXPECT_EQ(a.findings_suppressed, b.findings_suppressed);

    // Trace span trees, field by field.
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        const trace::Span& sa = a.spans[i];
        const trace::Span& sb = b.spans[i];
        SCOPED_TRACE(::testing::Message() << "span " << i << " label=" << sa.label);
        EXPECT_EQ(sa.id, sb.id);
        EXPECT_EQ(sa.parent, sb.parent);
        EXPECT_EQ(sa.kind, sb.kind);
        EXPECT_EQ(sa.unit, sb.unit);
        EXPECT_EQ(sa.label, sb.label);
        EXPECT_EQ(sa.start, sb.start);
        EXPECT_EQ(sa.end, sb.end);
        EXPECT_EQ(sa.attrs.level, sb.attrs.level);
        EXPECT_EQ(sa.attrs.tasks, sb.attrs.tasks);
        EXPECT_EQ(sa.attrs.items, sb.attrs.items);
        EXPECT_EQ(sa.attrs.waves, sb.attrs.waves);
        EXPECT_EQ(sa.attrs.ops, sb.attrs.ops);
        EXPECT_EQ(sa.attrs.work, sb.attrs.work);
        EXPECT_EQ(sa.attrs.bytes, sb.attrs.bytes);
        EXPECT_EQ(sa.attrs.coalesced_transactions, sb.attrs.coalesced_transactions);
        EXPECT_EQ(sa.attrs.strided_transactions, sb.attrs.strided_transactions);
        EXPECT_EQ(sa.attrs.extent_words, sb.attrs.extent_words);
        EXPECT_EQ(sa.attrs.imbalance, sb.attrs.imbalance);
    }
}

TEST(PoolDeterminism, AllAlgorithmsExecutorsAndModes) {
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(pooled_workers());
    for (const AlgoCase& c : algo_cases()) {
        const std::uint64_t n = c.base << 10;  // 10 levels: several waves at g = 64
        const auto input = make_input(n);
        for (const bool functional : {true, false}) {
            for (int e = 0; e < 6; ++e) {
                SCOPED_TRACE(::testing::Message()
                             << "alg=" << c.alg->name() << " executor=" << kExecutors[e]
                             << " functional=" << functional
                             << " workers=" << pool.worker_count());
                const auto serial = run_one(&inline_pool, e, *c.alg, input, functional);
                const auto pooled = run_one(&pool, e, *c.alg, input, functional);
                expect_identical(serial, pooled);
                // A null pool is the same configuration as a zero-worker one.
                const auto nopool = run_one(nullptr, e, *c.alg, input, functional);
                expect_identical(serial, nopool);
            }
        }
    }
}

/// Full executor × mode sweep for one irregular algorithm: pooled, inline,
/// and null-pool runs must agree on everything RunArtifacts covers — the
/// dynamically produced task lists (and so tasks_spawned, level spans, and
/// the per-level width/imbalance attrs) included.
template <typename T>
void sweep_irregular(const LevelAlgorithm<T>& alg, const std::vector<T>& input,
                     util::ThreadPool& inline_pool, util::ThreadPool& pool) {
    for (const bool functional : {true, false}) {
        for (int e = 0; e < 6; ++e) {
            SCOPED_TRACE(::testing::Message()
                         << "alg=" << alg.name() << " executor=" << kExecutors[e]
                         << " functional=" << functional << " n=" << input.size());
            const auto serial = run_one(&inline_pool, e, alg, input, functional);
            const auto pooled = run_one(&pool, e, alg, input, functional);
            expect_identical(serial, pooled);
            const auto nopool = run_one<T>(nullptr, e, alg, input, functional);
            expect_identical(serial, nopool);
            EXPECT_GT(serial.rep.tasks_spawned, 0u);  // the irregular path ran
        }
    }
}

TEST(PoolDeterminism, IrregularAlgorithmsExecutorsAndModes) {
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(pooled_workers());

    // Deterministic scattered points, non-power-of-two count.
    std::vector<algos::Pt> pts(300);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& p : pts) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.x = static_cast<std::int64_t>(x % 4001);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.y = static_cast<std::int64_t>(x % 4001);
    }

    algos::Quickhull qh;
    sweep_irregular<algos::Pt>(qh, pts, inline_pool, pool);

    algos::ClosestPair cp;
    sweep_irregular<algos::Pt>(cp, pts, inline_pool, pool);

    // Karatsuba input is two size-160 operands back to back.
    std::vector<std::int64_t> coeffs(2 * 160);
    for (auto& c : coeffs) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c = static_cast<std::int64_t>(x % 201) - 100;
    }
    algos::KaratsubaArray ka;
    sweep_irregular<std::int64_t>(ka, coeffs, inline_pool, pool);
}

/// Worker counts the raw sim-layer tests run at: one worker plus the
/// caller, and three plus the caller (a 4-core host's nproc − 1).
constexpr std::size_t kLayerWorkers[] = {1, 3};

// Raw device layer: non-uniform per-item charges across several waves. A
// pooled launch is one batch of blocks, none straddling two waves; folding
// the block slots must reproduce the item-by-item wave model exactly —
// LaunchResult, DeviceStats, and the per-wave trace records all match a
// reference computed here — inline and pooled, whatever the wave width,
// tail wave, or inline fallback.
TEST(PoolDeterminism, DeviceNonUniformWavesMatchSerial) {
    struct Shape {
        const char* name;
        std::uint64_t g;
        std::uint64_t items;
        bool items_use_pool;
    };
    const Shape shapes[] = {
        {"g=8, 125 waves", 8, 1000, false},
        {"g=1200 (HPU2, not a power of two)", 1200, 5001, false},
        {"last wave of one item", 64, 3 * 64 + 1, false},
        {"narrower than one wave", 4096, 1000, false},
        {"items_use_pool, waves no wider than the pool", 3, 10, true},
        {"items_use_pool, waves wider than the pool", 64, 1000, true},
    };
    auto kernel = [](sim::WorkItem& wi) {
        const std::uint64_t id = wi.global_id();
        wi.charge_compute(1 + (id * 2654435761ull) % 97);
        wi.charge_mem(1 + id % 5, sim::Pattern::kCoalesced);
        if (id % 3 == 0) wi.charge_mem(2, sim::Pattern::kStrided);
    };

    for (const std::size_t workers : kLayerWorkers) {
        util::ThreadPool pool(workers);
        for (const Shape& shape : shapes) {
            SCOPED_TRACE(::testing::Message()
                         << shape.name << " workers=" << workers << " g=" << shape.g
                         << " items=" << shape.items);
            sim::DeviceParams dp = small_hw().gpu;
            dp.g = shape.g;

            // Reference: the wave model applied item by item, in order.
            std::vector<sim::WaveTrace> want;
            sim::Ticks want_time = dp.launch_overhead;
            for (std::uint64_t first = 0; first < shape.items; first += shape.g) {
                sim::WaveTrace wave;
                wave.first_item = first;
                wave.items = std::min(shape.g, shape.items - first);
                for (std::uint64_t id = first; id < first + wave.items; ++id) {
                    sim::OpCounter ops;
                    sim::WorkItem wi(id, shape.items, ops);
                    kernel(wi);
                    wave.max_item_ops =
                        std::max(wave.max_item_ops, ops.gpu_ops(dp.strided_penalty));
                    wave.ops += ops;
                }
                wave.duration = wave.max_item_ops / dp.gamma;
                want_time += wave.duration;
                want.push_back(wave);
            }

            sim::Device serial(dp);
            sim::Device pooled(dp, &pool);
            for (sim::Device* dev : {&serial, &pooled}) {
                SCOPED_TRACE(dev == &serial ? "inline" : "pooled");
                std::vector<sim::WaveTrace> waves;
                dev->set_wave_trace(&waves);
                pool.reset_telemetry();
                const sim::LaunchResult r = dev->launch(shape.items, kernel, shape.items_use_pool);
                EXPECT_LE(pool.telemetry().batches, 1u);  // one batch per launch, not per wave

                EXPECT_EQ(r.time, want_time);
                EXPECT_EQ(r.items, shape.items);
                EXPECT_EQ(r.waves, want.size());
                EXPECT_EQ(dev->stats().launches, 1u);
                EXPECT_EQ(dev->stats().busy_time, want_time);
                sim::OpCounter total;
                double max_item_ops = 0.0;
                ASSERT_EQ(waves.size(), want.size());
                for (std::size_t w = 0; w < want.size(); ++w) {
                    SCOPED_TRACE(::testing::Message() << "wave " << w);
                    EXPECT_EQ(waves[w].first_item, want[w].first_item);
                    EXPECT_EQ(waves[w].items, want[w].items);
                    EXPECT_EQ(waves[w].duration, want[w].duration);
                    EXPECT_EQ(waves[w].max_item_ops, want[w].max_item_ops);
                    EXPECT_EQ(waves[w].ops.compute, want[w].ops.compute);
                    EXPECT_EQ(waves[w].ops.mem_coalesced, want[w].ops.mem_coalesced);
                    EXPECT_EQ(waves[w].ops.mem_strided, want[w].ops.mem_strided);
                    total += want[w].ops;
                    max_item_ops = std::max(max_item_ops, want[w].max_item_ops);
                }
                EXPECT_EQ(r.max_item_ops, max_item_ops);
                EXPECT_EQ(r.total_ops.compute, total.compute);
                EXPECT_EQ(r.total_ops.mem_coalesced, total.mem_coalesced);
                EXPECT_EQ(r.total_ops.mem_strided, total.mem_strided);
                EXPECT_EQ(dev->stats().total_ops.compute, total.compute);
            }
        }
    }
}

// Raw CPU layer: the block folds must keep the full per-category OpCounter
// split (compute / coalesced / strided), not just the scalar totals — the
// regression this test pins collapsed everything into `compute`. Inline and
// pooled levels match a reference computed here; levels span one block,
// many blocks with a ragged tail (2^16 + 3 tasks), and the narrow
// tasks_use_pool case that runs inline.
TEST(PoolDeterminism, CpuLevelKeepsCategorySplit) {
    struct Shape {
        std::uint64_t tasks;
        bool tasks_use_pool;
    };
    const Shape shapes[] = {{1, false}, {777, false}, {(1u << 16) + 3, false}, {3, true},
                            {777, true}};
    sim::CpuParams cp = small_hw().cpu;
    auto task = [](std::uint64_t i, sim::OpCounter& ops) {
        ops.charge_compute(3 + i % 11);
        ops.charge_mem(2 + i % 4, sim::Pattern::kCoalesced);
        if (i % 2 == 0) ops.charge_mem(1 + i % 3, sim::Pattern::kStrided);
    };

    for (const std::size_t workers : kLayerWorkers) {
        util::ThreadPool pool(workers);
        for (const Shape& shape : shapes) {
            SCOPED_TRACE(::testing::Message() << "workers=" << workers << " tasks=" << shape.tasks
                                              << " tasks_use_pool=" << shape.tasks_use_pool);
            // Reference: every task charged in order, then the makespan.
            std::vector<std::uint64_t> costs;
            sim::OpCounter want_ops;
            for (std::uint64_t i = 0; i < shape.tasks; ++i) {
                sim::OpCounter ops;
                task(i, ops);
                costs.push_back(ops.cpu_ops());
                want_ops += ops;
            }
            const auto want_time = static_cast<sim::Ticks>(util::makespan(costs, cp.p));

            sim::CpuUnit serial(cp);
            sim::CpuUnit pooled(cp, &pool);
            for (sim::CpuUnit* cpu : {&serial, &pooled}) {
                SCOPED_TRACE(cpu == &serial ? "inline" : "pooled");
                pool.reset_telemetry();
                const sim::LevelResult r = cpu->run_level(
                    shape.tasks, task, 0, util::ListOrder::kArrival, shape.tasks_use_pool);
                EXPECT_LE(pool.telemetry().batches, 1u);

                EXPECT_EQ(r.time, want_time);
                EXPECT_EQ(r.tasks, shape.tasks);
                EXPECT_EQ(r.max_task_ops, *std::max_element(costs.begin(), costs.end()));
                EXPECT_EQ(r.total_ops.compute, want_ops.compute);
                EXPECT_EQ(r.total_ops.mem_coalesced, want_ops.mem_coalesced);
                EXPECT_EQ(r.total_ops.mem_strided, want_ops.mem_strided);
                EXPECT_GT(r.total_ops.mem_coalesced, 0u);  // the split actually survived
                EXPECT_GT(r.total_ops.mem_strided, 0u);
            }
        }
    }
}

}  // namespace
}  // namespace hpu::core
