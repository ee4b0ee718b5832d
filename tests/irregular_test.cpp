// Tests of the irregular-tree machinery (dynamic task lists): the TaskList
// shape statistics, the extent-overlap detector, the observed-width
// scheduler, and the engine itself — dispatch from all six executors,
// span-derived task conservation, per-level α re-balance, the verify
// downgrade certificate, and the width/imbalance trace attributes — plus
// the state the algorithms keep across runs, which prepare() no longer
// clears and every run must write before it reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "algos/closest_pair.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/quickhull.hpp"
#include "analysis/race.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "model/observed.hpp"
#include "platforms/platforms.hpp"
#include "sim/device.hpp"
#include "trace/span.hpp"
#include "util/thread_pool.hpp"

namespace hpu::core {
namespace {

// ------------------------------------------------------------- task lists

TEST(TaskList, ShapeStatistics) {
    TaskList tl;
    tl.tasks = {{0, 8, 0}, {8, 8, 0}, {8, 10, 0}, {10, 16, 0}};
    EXPECT_EQ(tl.width(), 4u);
    EXPECT_EQ(tl.extent_words(), 16u);  // 8 + 0 + 2 + 6
    EXPECT_EQ(tl.empty_tasks(), 1u);
    // max 8 over mean 16/3 of the non-empty tasks.
    EXPECT_DOUBLE_EQ(tl.imbalance(), 8.0 * 3.0 / 16.0);
}

TEST(TaskList, DegenerateShapes) {
    TaskList tl;
    EXPECT_TRUE(tl.empty());
    EXPECT_DOUBLE_EQ(tl.imbalance(), 0.0);
    tl.tasks = {{4, 4, 0}, {9, 9, 0}};
    EXPECT_EQ(tl.empty_tasks(), 2u);
    EXPECT_DOUBLE_EQ(tl.imbalance(), 0.0);  // every task empty
    tl.tasks = {{0, 4, 0}, {4, 8, 0}};
    EXPECT_DOUBLE_EQ(tl.imbalance(), 1.0);  // perfectly regular
}

TEST(TaskList, ChildSlotsHoldAtMostTheirCapacity) {
    TaskDesc slots[2];
    ChildSlots kids(slots, 2);
    EXPECT_TRUE(kids.empty());
    kids.push_back({0, 4, 1});
    kids.push_back({4, 8, 2});
    ASSERT_EQ(kids.size(), 2u);
    EXPECT_EQ(kids.begin()[1], (TaskDesc{4, 8, 2}));
    EXPECT_THROW(kids.push_back({8, 9, 3}), util::HpuError);
    EXPECT_EQ(kids.size(), 2u);
}

TEST(LevelAlgorithm, OnlyIrregularAlgorithmsHaveTheDynamicTreeInterface) {
    algos::MergesortPlain<std::int32_t> regular;
    EXPECT_EQ(regular.as_irregular(), nullptr);
    algos::Quickhull hull;
    EXPECT_EQ(hull.as_irregular(), &hull);
}

// --------------------------------------------------------- extent overlaps

TEST(ExtentOverlap, FlagsOverlapAndNamesTheItems) {
    std::vector<analysis::Extent> ex = {{0, 8}, {6, 12}, {12, 20}};
    analysis::AnalysisReport rep;
    analysis::detect_extent_overlaps(ex, "unit/extents", rep);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].kind, analysis::FindingKind::kExtentOverlap);
    EXPECT_EQ(rep.findings[0].item_a, 0u);
    EXPECT_EQ(rep.findings[0].item_b, 1u);
    EXPECT_FALSE(rep.clean());
}

TEST(ExtentOverlap, CleanForDisjointAndSkipsEmpty) {
    // Empty extents may sit anywhere (spawned-but-dead branches).
    std::vector<analysis::Extent> ex = {{0, 8}, {3, 3}, {8, 16}, {20, 20}};
    analysis::AnalysisReport rep;
    analysis::detect_extent_overlaps(ex, "unit/extents", rep);
    EXPECT_TRUE(rep.findings.empty());
}

// ------------------------------------------------------- observed schedule

/// Hardware where GPU lanes genuinely compete with the cores for modest
/// per-task costs (hpu1's per-lane speed makes 100-op tasks CPU-bound,
/// which would leave the split logic unexercised).
sim::HpuParams gpu_friendly() {
    sim::HpuParams hw = platforms::hpu1();
    hw.name = "gpu-friendly";
    hw.cpu.p = 4;
    hw.cpu.contention = 0.0;
    hw.gpu.g = 64;
    hw.gpu.gamma = 0.1;
    hw.gpu.launch_overhead = 0.0;
    hw.link.lambda = 5.0;
    hw.link.delta = 0.01;
    return hw;
}

TEST(ObservedSplit, PrefixMinimizesEstimatedMakespan) {
    const sim::HpuParams hw = gpu_friendly();
    // Uniform level wide enough that both units get a share.
    std::vector<model::ObservedTask> est(256, model::ObservedTask{100.0, 4});
    const auto sp = model::split_observed_level(hw, est, 1.0, true);
    ASSERT_GT(sp.cpu_tasks, 0u);
    ASSERT_LT(sp.cpu_tasks, est.size());
    EXPECT_GT(sp.alpha, 0.0);
    EXPECT_LT(sp.alpha, 1.0);
    // No other split may beat the chosen one under the documented pricing.
    auto makespan = [&](std::uint64_t k) {
        double csum = 0.0, cmax = 0.0;
        for (std::uint64_t j = 0; j < k; ++j) {
            csum += est[j].cost;
            cmax = std::max(cmax, est[j].cost);
        }
        const double cpu =
            k > 0 ? std::max(csum / static_cast<double>(hw.cpu.p), cmax) : 0.0;
        // Device part [k, W): the launch overhead plus, per wave of g tasks
        // from k on, its slowest task at γ ops per tick; then both link
        // transfers of its words.
        double gpu = 0.0;
        if (k < est.size()) {
            gpu = hw.gpu.launch_overhead;
            std::uint64_t words = 0;
            for (std::uint64_t w0 = k; w0 < est.size(); w0 += hw.gpu.g) {
                double wmax = 0.0;
                for (std::uint64_t j = w0; j < std::min<std::uint64_t>(w0 + hw.gpu.g, est.size());
                     ++j) {
                    wmax = std::max(wmax, est[j].cost);
                    words += est[j].words;
                }
                gpu += wmax / hw.gpu.gamma;
            }
            gpu += 2.0 * (hw.link.lambda + hw.link.delta * static_cast<double>(words));
        }
        return std::max(cpu, gpu);
    };
    const double chosen = std::max(sp.cpu_est, sp.gpu_est);
    EXPECT_DOUBLE_EQ(chosen, makespan(sp.cpu_tasks));
    for (std::uint64_t k = 0; k <= est.size(); ++k) {
        EXPECT_LE(chosen, makespan(k) + 1e-9) << "k=" << k;
    }
}

TEST(ObservedSplit, DeviceEstimateEqualsTheLaunchCharge) {
    // The split prices a device part as sim::Device::launch charges the same
    // per-task ops: wave by wave, each wave at its slowest task. Integer
    // costs and γ = 1/64 keep every sum exact, so the two must be equal.
    sim::HpuParams hw = gpu_friendly();
    hw.cpu.p = 2;
    hw.gpu.g = 256;
    hw.gpu.gamma = 1.0 / 64.0;
    hw.gpu.launch_overhead = 100.0;
    std::mt19937_64 rng(7);
    std::vector<model::ObservedTask> est(1000);  // four waves, the last one partial
    for (auto& t : est) t = {static_cast<double>(1 + rng() % 100), 4};

    auto charge = [&](std::uint64_t k) {
        sim::Device dev(hw.gpu);
        return dev
            .launch(est.size() - k,
                    [&](sim::WorkItem& wi) {
                        wi.charge_compute(static_cast<std::uint64_t>(est[k + wi.global_id()].cost));
                    })
            .time;
    };
    model::SplitScratch scratch;
    const auto pl = model::place_observed_level(hw, est, 1.0, 0.0, 0.0, scratch);
    EXPECT_EQ(pl.gpu_est, charge(0));
    // Every suffix of the level, as a level of its own: whole waves, a
    // partial last wave, and fewer tasks than lanes.
    for (std::uint64_t k = 1; k < est.size(); ++k) {
        const std::span<const model::ObservedTask> rest = std::span(est).subspan(k);
        EXPECT_EQ(model::place_observed_level(hw, rest, 1.0, 0.0, 0.0, scratch).gpu_est,
                  charge(k))
            << "k=" << k;
    }
    const auto sp = model::split_observed_level(hw, est, 1.0, /*include_transfers=*/false);
    ASSERT_GT(sp.cpu_tasks, 0u);
    ASSERT_LT(sp.cpu_tasks, est.size());
    EXPECT_EQ(sp.gpu_est, charge(sp.cpu_tasks));
}

TEST(ObservedSplit, PerTaskDeviceOpsPriceTheLaunchExactly) {
    // Tasks that carry their own device ops are priced from them, not from
    // cost × multiplier: the part must cost what a launch of the same
    // charges costs. Integer ops, a penalty of 4 and γ = 1/64 keep every
    // sum exact; the bogus multiplier would show if it were read.
    sim::HpuParams hw = gpu_friendly();
    hw.cpu.p = 2;
    hw.gpu.g = 128;
    hw.gpu.gamma = 1.0 / 64.0;
    hw.gpu.strided_penalty = 4.0;
    hw.gpu.launch_overhead = 50.0;
    std::mt19937_64 rng(11);
    std::vector<sim::OpCounter> charges(700);
    std::vector<model::ObservedTask> est(charges.size());
    for (std::size_t j = 0; j < charges.size(); ++j) {
        charges[j].charge_compute(1 + rng() % 50);
        charges[j].charge_mem(rng() % 40, sim::Pattern::kStrided);
        charges[j].charge_mem(rng() % 10, sim::Pattern::kCoalesced);
        est[j] = {static_cast<double>(charges[j].cpu_ops()), 4,
                  charges[j].gpu_ops(hw.gpu.strided_penalty)};
    }
    auto charge = [&](std::uint64_t k) {
        sim::Device dev(hw.gpu);
        return dev
            .launch(est.size() - k,
                    [&](sim::WorkItem& wi) { wi.ops() += charges[k + wi.global_id()]; })
            .time;
    };
    const double bogus = 1000.0;
    model::SplitScratch scratch;
    EXPECT_EQ(model::place_observed_level(hw, est, bogus, 0.0, 0.0, scratch).gpu_est,
              charge(0));
    const auto sp = model::split_observed_level(hw, est, bogus, /*include_transfers=*/false);
    ASSERT_GT(sp.cpu_tasks, 0u);
    ASSERT_LT(sp.cpu_tasks, est.size());
    EXPECT_EQ(sp.gpu_est, charge(sp.cpu_tasks));
}

TEST(ObservedSplit, ExactTiesKeepTheLargerCpuPrefix) {
    // Four 1-op tasks on two cores, four lanes at γ = 0.5 and a free link:
    // every split k prices exactly 2 ticks, so a split buys nothing and
    // the whole level stays on the CPU, shipping nothing.
    sim::HpuParams hw = gpu_friendly();
    hw.cpu.p = 2;
    hw.gpu.g = 4;
    hw.gpu.gamma = 0.5;
    hw.link.lambda = 0.0;
    hw.link.delta = 0.0;
    const std::vector<model::ObservedTask> est(4, model::ObservedTask{1.0, 8, 1.0});
    for (const bool transfers : {false, true}) {
        const auto sp = model::split_observed_level(hw, est, 1.0, transfers);
        EXPECT_EQ(sp.cpu_tasks, 4u) << "transfers=" << transfers;
        EXPECT_EQ(sp.cpu_est, 2.0);
        EXPECT_EQ(sp.gpu_est, 0.0);
        EXPECT_EQ(sp.alpha, 1.0);
    }
    model::SplitScratch scratch;
    const auto pl = model::place_observed_level(hw, est, 1.0, 0.0, 0.0, scratch);
    EXPECT_EQ(pl.cpu_est, pl.gpu_est);
    EXPECT_EQ(pl.unit, model::LevelPlacement::kCpu);
    // At γ = 1 the device part costs 1 tick for any k < 4, so k = 0, 1, 2
    // all price 1: the largest of them wins.
    hw.gpu.gamma = 1.0;
    EXPECT_EQ(model::split_observed_level(hw, est, 1.0, true).cpu_tasks, 2u);
}

TEST(ObservedSplit, SkewedCostsShiftTheSplit) {
    const sim::HpuParams hw = gpu_friendly();
    // Front-loaded costs: the same width must yield a smaller CPU prefix
    // than uniform costs would.
    std::vector<model::ObservedTask> uniform(64, model::ObservedTask{100.0, 4});
    std::vector<model::ObservedTask> skewed = uniform;
    for (std::uint64_t j = 0; j < 8; ++j) skewed[j].cost = 3000.0;
    const auto su = model::split_observed_level(hw, uniform, 1.0, true);
    const auto ss = model::split_observed_level(hw, skewed, 1.0, true);
    EXPECT_LE(ss.cpu_tasks, su.cpu_tasks);
}

// ----------------------------------------------------- engine end-to-end

std::vector<algos::Pt> random_points(std::uint64_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<algos::Pt> pts(n);
    for (auto& p : pts) {
        p.x = static_cast<std::int64_t>(rng() % 4096);
        p.y = static_cast<std::int64_t>(rng() % 4096);
    }
    return pts;
}

/// Sums the task counts of kLevel spans under the phase with the given
/// label suffix ("/expand" or "/combine").
std::uint64_t phase_level_tasks(const trace::TraceSession& ts, const std::string& suffix) {
    std::vector<trace::SpanId> phases;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind == trace::SpanKind::kPhase &&
            s.label.size() >= suffix.size() &&
            s.label.compare(s.label.size() - suffix.size(), suffix.size(), suffix) == 0) {
            phases.push_back(s.id);
        }
    }
    std::uint64_t tasks = 0;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind != trace::SpanKind::kLevel) continue;
        if (std::find(phases.begin(), phases.end(), s.parent) == phases.end()) continue;
        tasks += s.attrs.tasks;
    }
    return tasks;
}

TEST(IrregularEngine, AllSixExecutorsAgreeBitExactly) {
    const auto base = random_points(300, 17);
    algos::ClosestPair alg;
    sim::Hpu h(platforms::hpu1());
    ExecOptions opts;

    auto ref = base;
    const ExecReport rs = run_sequential(h.cpu(), alg, std::span(ref), opts);
    EXPECT_GT(rs.tasks_spawned, 0u);
    EXPECT_EQ(rs.levels_gpu, 0u);

    auto check = [&](const char* label, auto&& fn) {
        auto d = base;
        const ExecReport r = fn(std::span(d));
        EXPECT_EQ(d, ref) << label << " output differs from sequential";
        EXPECT_EQ(r.tasks_spawned, rs.tasks_spawned) << label;
        EXPECT_TRUE(std::isfinite(r.total)) << label;
        EXPECT_GT(r.total, 0.0) << label;
        return r;
    };
    check("multicore", [&](std::span<algos::Pt> d) {
        return run_multicore(h.cpu(), alg, d, opts);
    });
    const ExecReport rg =
        check("gpu", [&](std::span<algos::Pt> d) { return run_gpu(h, alg, d, opts); });
    EXPECT_GT(rg.transfer, 0.0);  // boundary ship-in/out
    check("basic-hybrid", [&](std::span<algos::Pt> d) {
        return run_basic_hybrid(h, alg, d, opts);
    });
    const ExecReport ra = check("advanced-hybrid", [&](std::span<algos::Pt> d) {
        AdvancedOptions a;
        a.exec = opts;
        // The closed-form (α, y) is ignored on the dynamic path — even
        // values the regular executor would reject must work.
        return run_advanced_hybrid(h, alg, d, 0.999, 1, a);
    });
    EXPECT_GT(ra.alpha_effective, 0.0);
    EXPECT_LE(ra.alpha_effective, 1.0);
    const ExecReport rp = check("pipelined-hybrid", [&](std::span<algos::Pt> d) {
        PipelinedOptions p;
        p.exec = opts;
        p.chunks = 4;
        return run_pipelined_hybrid(h, alg, d, 0.5, 1, p);
    });
    EXPECT_GE(rp.chunks, 1u);
    EXPECT_LE(rp.chunks, 4u);

    // A different machine may only change the schedule, never the bytes.
    sim::Hpu hg(gpu_friendly());
    check("advanced-hybrid/gpu-friendly", [&](std::span<algos::Pt> d) {
        AdvancedOptions a;
        a.exec = opts;
        return run_advanced_hybrid(hg, alg, d, 0.5, 1, a);
    });
    check("pipelined-hybrid/gpu-friendly", [&](std::span<algos::Pt> d) {
        PipelinedOptions p;
        p.exec = opts;
        p.chunks = 4;
        return run_pipelined_hybrid(hg, alg, d, 0.5, 1, p);
    });
}

// ------------------------------------------------------------ task charges

/// What walk_charges saw: tasks divided, empty extents, leaves (a divide
/// that appended no children) and combines.
struct Walked {
    std::uint64_t tasks = 0, empty = 0, leaves = 0, combines = 0;
};

/// Walks `alg`'s tree over `input` as the sweeps do — the root pass, each
/// level's divides, then the combines bottom-up — and checks that every
/// body charges exactly its task_charge.
template <typename T>
Walked walk_charges(const IrregularLevelAlgorithm<T>& alg, std::vector<T> data) {
    auto same = [](const sim::OpCounter& x, const sim::OpCounter& y) {
        return x.compute == y.compute && x.mem_coalesced == y.mem_coalesced &&
               x.mem_strided == y.mem_strided;
    };
    const std::span<T> d(data);
    alg.prepare(d.size());
    alg.bind_exec(util::MergeExec{});
    sim::OpCounter pre;
    std::vector<TaskList> levels{alg.root_tasks(d, pre)};
    std::vector<std::vector<std::uint64_t>> offs;
    Walked w;
    const std::uint64_t a = alg.a();
    for (std::uint64_t depth = 0; !levels[depth].empty(); ++depth) {
        const std::vector<TaskDesc> tasks = levels[depth].tasks;
        std::vector<TaskDesc> slots(a);
        std::vector<std::uint64_t> off{0};
        TaskList next;
        for (const TaskDesc& t : tasks) {
            ChildSlots kids(slots.data(), a);
            sim::OpCounter ops;
            alg.divide_task(d, t, depth, kids, ops);
            EXPECT_TRUE(same(ops, alg.task_charge(t, false)))
                << alg.name() << " divide [" << t.begin << ", " << t.end << ") at level "
                << depth;
            next.tasks.insert(next.tasks.end(), kids.begin(), kids.end());
            off.push_back(next.tasks.size());
            ++w.tasks;
            w.empty += t.empty() ? 1 : 0;
            w.leaves += kids.empty() ? 1 : 0;
        }
        offs.push_back(std::move(off));
        levels.push_back(std::move(next));
    }
    if (!alg.has_combine()) return w;
    for (std::uint64_t i = offs.size(); i-- > 0;) {
        for (std::uint64_t j = 0; j < levels[i].width(); ++j) {
            const TaskDesc& t = levels[i].tasks[j];
            const std::span<const TaskDesc> kids =
                std::span<const TaskDesc>(levels[i + 1].tasks)
                    .subspan(offs[i][j], offs[i][j + 1] - offs[i][j]);
            sim::OpCounter ops;
            alg.combine_task(d, t, i, kids, ops);
            EXPECT_TRUE(same(ops, alg.task_charge(t, true)))
                << alg.name() << " combine [" << t.begin << ", " << t.end << ") at level " << i;
            ++w.combines;
        }
    }
    return w;
}

TEST(TaskCharge, QuickhullBodiesChargeTheirTaskCharge) {
    algos::Quickhull alg;
    const Walked random = walk_charges(alg, random_points(500, 3));
    EXPECT_GT(random.tasks, 10u);
    EXPECT_GT(random.empty, 0u);
    // Nothing below A→B: the lower root extent is empty.
    const Walked upper = walk_charges(alg, std::vector<algos::Pt>{
                                               {0, 0}, {10, 0}, {5, 9}, {5, 2}, {2, 1}, {8, 3}});
    EXPECT_GT(upper.empty, 0u);
    // All collinear: both root extents are empty.
    std::vector<algos::Pt> line;
    for (std::int64_t i = 0; i < 40; ++i) line.push_back({3 * i, 2 * i});
    const Walked collinear = walk_charges(alg, line);
    EXPECT_EQ(collinear.tasks, 2u);
    EXPECT_EQ(collinear.empty, 2u);
    // All identical: no root tasks at all.
    EXPECT_EQ(walk_charges(alg, std::vector<algos::Pt>(17, algos::Pt{4, 4})).tasks, 0u);
}

TEST(TaskCharge, KaratsubaBodiesChargeTheirTaskCharge) {
    algos::KaratsubaArray alg;
    std::mt19937_64 rng(5);
    // m <= 4 roots are schoolbook leaves; odd halves split unevenly.
    for (const std::uint64_t half : {2u, 3u, 4u, 5u, 7u, 13u, 101u, 256u}) {
        std::vector<std::int64_t> in(2 * half);
        for (auto& c : in) c = static_cast<std::int64_t>(rng() % 201) - 100;
        const Walked w = walk_charges(alg, in);
        EXPECT_EQ(w.combines, w.tasks) << "half=" << half;
        EXPECT_GT(w.leaves, 0u) << "half=" << half;
        if (half <= 4) {
            EXPECT_EQ(w.tasks, 1u) << "half=" << half;
        }
    }
}

TEST(TaskCharge, ClosestPairBodiesChargeTheirTaskCharge) {
    algos::ClosestPair alg;
    // n <= 3 roots are leaves; the others split ceil/floor down to m <= 3.
    for (const std::uint64_t n : {2u, 3u, 4u, 7u, 300u, 1001u}) {
        const Walked w = walk_charges(alg, random_points(n, 9 + n));
        EXPECT_EQ(w.combines, w.tasks) << "n=" << n;
        EXPECT_GT(w.leaves, 0u) << "n=" << n;
        if (n <= 3) {
            EXPECT_EQ(w.tasks, 1u) << "n=" << n;
        }
    }
}

TEST(Quickhull, TiedFarthestPointsKeepOnlyHullVertices) {
    // (2,5), (5,5) and (8,5) tie as the farthest points from the edge
    // (0,0)→(10,0); (5,5) lies on the hull edge between the other two and
    // must not be reported. The tie breaks toward P along P→Q.
    const std::vector<algos::Pt> input = {{5, 5}, {0, 0}, {2, 5}, {10, 0}, {8, 5}, {5, 1}};
    const std::vector<algos::Pt> want = {{0, 0}, {2, 5}, {8, 5}, {10, 0}};
    sim::Hpu h(platforms::hpu1());
    for (int executor = 0; executor < 3; ++executor) {
        algos::Quickhull alg;
        auto d = input;
        switch (executor) {
            case 0: run_sequential(h.cpu(), alg, std::span(d)); break;
            case 1: run_multicore(h.cpu(), alg, std::span(d)); break;
            default: run_gpu(h, alg, std::span(d)); break;
        }
        ASSERT_EQ(alg.hull_count(), want.size()) << "executor " << executor;
        EXPECT_TRUE(std::equal(want.begin(), want.end(), d.begin())) << "executor " << executor;
    }
}

TEST(IrregularEngine, SpanTaskCountsConserveTasksSpawned) {
    // The conservation invariant, span-derived: summing the `tasks`
    // attribute of the kLevel spans under the expand phase reconstructs
    // tasks_spawned — however the schedule split each level.
    const auto base = random_points(257, 23);
    algos::Quickhull alg;
    // GPU-friendly hardware so hybrid levels genuinely split — a split
    // level's CPU and GPU spans must still sum to the full width.
    sim::Hpu h(gpu_friendly());
    for (int executor = 0; executor < 3; ++executor) {
        auto d = base;
        trace::TraceSession ts;
        ExecOptions opts;
        opts.trace = &ts;
        ExecReport r;
        switch (executor) {
            case 0: r = run_multicore(h.cpu(), alg, std::span(d), opts); break;
            case 1: r = run_gpu(h, alg, std::span(d), opts); break;
            default: {
                AdvancedOptions a;
                a.exec = opts;
                r = run_advanced_hybrid(h, alg, std::span(d), 0.5, 1, a);
                break;
            }
        }
        EXPECT_GT(r.tasks_spawned, 0u);
        EXPECT_EQ(phase_level_tasks(ts, "/expand"), r.tasks_spawned)
            << "executor " << executor;
    }
}

TEST(IrregularEngine, ExactTreesSpawnTheSameCountFunctionalAndAnalytic) {
    // closest-pair and Karatsuba have data-independent tree shapes, so the
    // analytic path must price exactly the tree the functional path runs.
    sim::Hpu h(platforms::hpu1());
    {
        algos::ClosestPair alg;
        auto d = random_points(199, 5);
        ExecOptions opts;
        const auto rf = run_multicore(h.cpu(), alg, std::span(d), opts);
        opts.functional = false;
        const auto ra = run_multicore(h.cpu(), alg, std::span(d), opts);
        EXPECT_EQ(rf.tasks_spawned, ra.tasks_spawned);
    }
    {
        algos::KaratsubaArray alg;
        std::vector<std::int64_t> d(2 * 151, 3);
        ExecOptions opts;
        const auto rf = run_gpu(h, alg, std::span(d), opts);
        opts.functional = false;
        std::vector<std::int64_t> d2(2 * 151, 3);
        const auto ra = run_gpu(h, alg, std::span(d2), opts);
        EXPECT_EQ(rf.tasks_spawned, ra.tasks_spawned);
    }
}

TEST(IrregularEngine, AnalyticModeNeverTouchesData) {
    algos::KaratsubaArray alg;
    sim::Hpu h(platforms::hpu1());
    std::vector<std::int64_t> d(2 * 100, 9);
    const auto before = d;
    ExecOptions opts;
    opts.functional = false;
    AdvancedOptions a;
    a.exec = opts;
    const auto r = run_advanced_hybrid(h, alg, std::span(d), 0.5, 1, a);
    EXPECT_EQ(d, before);
    EXPECT_GT(r.total, 0.0);
    EXPECT_GT(r.tasks_spawned, 0u);
}

TEST(IrregularEngine, LevelSpansCarryWidthAndImbalanceAttrs) {
    const auto base = random_points(200, 31);
    algos::ClosestPair alg;
    sim::Hpu h(platforms::hpu1());
    auto d = base;
    trace::TraceSession ts;
    ExecOptions opts;
    opts.trace = &ts;
    run_multicore(h.cpu(), alg, std::span(d), opts);
    std::uint64_t levels_with_extent = 0, levels_with_imbalance = 0;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind != trace::SpanKind::kLevel) continue;
        if (s.attrs.extent_words > 0) ++levels_with_extent;
        if (s.attrs.imbalance > 0.0) ++levels_with_imbalance;
        // The ceil/floor tree skews: some level must show imbalance > 1.
    }
    EXPECT_GT(levels_with_extent, 0u);
    EXPECT_GT(levels_with_imbalance, 0u);
    bool skew_seen = false;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind == trace::SpanKind::kLevel && s.attrs.imbalance > 1.0) skew_seen = true;
    }
    EXPECT_TRUE(skew_seen) << "uneven strip recursion must show shape skew";
}

TEST(IrregularEngine, VerifyDowngradesToCheckedWithDynamicFootprintFinding) {
    // Static race-freedom proofs need static footprints; a dynamic tree
    // cannot declare one. ExecOptions::verify must attach the downgrade
    // certificate — all phases unknown, a kDynamicFootprint finding, and
    // proven() == false so the exact runtime checks stay armed.
    algos::Quickhull alg;
    sim::Hpu h(platforms::hpu1());
    auto d = random_points(100, 7);
    ExecOptions opts;
    opts.verify = true;
    opts.validate = true;
    const auto r = run_gpu(h, alg, std::span(d), opts);
    EXPECT_TRUE(r.verify.attempted);
    EXPECT_FALSE(r.verify.race_free());
    EXPECT_FALSE(r.verify.certified());
    bool downgrade = false;
    for (const auto& f : r.verify.findings) {
        if (f.kind == verify::VerifyFinding::Kind::kDynamicFootprint) downgrade = true;
    }
    EXPECT_TRUE(downgrade);
    // ...and the armed runtime checks find nothing wrong with quickhull.
    EXPECT_TRUE(r.analysis.findings.empty()) << r.analysis.summary();
    EXPECT_GT(r.analysis.launches_checked, 0u);
}

TEST(IrregularEngine, RegularAlgorithmsNeverTakeTheIrregularPath) {
    algos::MergesortPlain<std::int32_t> alg;
    sim::Hpu h(platforms::hpu1());
    std::vector<std::int32_t> d(256);
    for (std::uint64_t i = 0; i < d.size(); ++i) d[i] = static_cast<std::int32_t>(255 - i);
    const auto r = run_basic_hybrid(h, alg, std::span(d), ExecOptions{});
    EXPECT_EQ(r.tasks_spawned, 0u);  // irregular-only counter stays 0
    EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
}

TEST(IrregularEngine, NonPowerOfTwoSizesRunEverywhere) {
    // The whole point of the dynamic path: sizes no regular executor
    // accepts. 251 is prime; 2·163 has an odd half.
    sim::Hpu h(platforms::hpu1());
    {
        algos::ClosestPair alg;
        auto d = random_points(251, 41);
        auto ref = d;
        run_sequential(h.cpu(), alg, std::span(ref), ExecOptions{});
        PipelinedOptions p;
        p.chunks = 3;
        const auto r = run_pipelined_hybrid(h, alg, std::span(d), 0.5, 1, p);
        EXPECT_EQ(d, ref);
        EXPECT_GT(r.tasks_spawned, 0u);
    }
    {
        algos::KaratsubaArray alg;
        std::mt19937_64 rng(9);
        std::vector<std::int64_t> d(2 * 163);
        for (auto& v : d) v = static_cast<std::int64_t>(rng() % 100) - 50;
        auto ref = d;
        run_sequential(h.cpu(), alg, std::span(ref), ExecOptions{});
        const auto r = run_basic_hybrid(h, alg, std::span(d), ExecOptions{});
        EXPECT_EQ(d, ref);
        EXPECT_GT(r.tasks_spawned, 0u);
    }
}

/// The golden's WEAK-HOST platform: one core and a fast, cheaply linked
/// device, so the dynamic trees' split levels run device parts.
sim::HpuParams weak_host() {
    sim::HpuParams hw = platforms::hpu1();
    hw.name = "WEAK-HOST";
    hw.cpu.p = 1;
    hw.gpu.g = 64;
    hw.gpu.gamma = 0.5;
    hw.gpu.strided_penalty = 2.0;
    hw.gpu.launch_overhead = 0.0;
    hw.link.lambda = 5.0;
    hw.link.delta = 0.01;
    return hw;
}

/// Everything a traced hybrid run of `alg` reports except ExecReport::
/// chunks and the run label: every report field, the output bytes and the
/// span tree.
template <typename T>
std::vector<std::string> hybrid_run(const LevelAlgorithm<T>& alg, const std::vector<T>& input,
                                    bool pipelined, double alpha, std::uint64_t y,
                                    std::uint64_t chunks) {
    sim::Hpu h(weak_host());
    trace::TraceSession ts;
    std::vector<T> d = input;
    ExecReport r;
    if (pipelined) {
        PipelinedOptions p;
        p.exec.trace = &ts;
        p.chunks = chunks;
        r = run_pipelined_hybrid(h, alg, std::span(d), alpha, y, p);
    } else {
        AdvancedOptions a;
        a.exec.trace = &ts;
        r = run_advanced_hybrid(h, alg, std::span(d), alpha, y, a);
    }
    EXPECT_GT(r.levels_gpu, 0u) << alg.name() << ": the split ran no device part";
    std::vector<std::string> out;
    std::ostringstream os;
    os << std::hexfloat << r.total << ' ' << r.cpu_busy << ' ' << r.gpu_busy << ' '
       << r.transfer << ' ' << r.finish << ' ' << r.levels_cpu << ' ' << r.levels_gpu << ' '
       << r.alpha_effective << ' ' << r.tasks_spawned;
    out.push_back(os.str());
    out.emplace_back(reinterpret_cast<const char*>(d.data()), d.size() * sizeof(T));
    for (const trace::Span& s : ts.spans()) {
        const trace::SpanAttrs& a = s.attrs;
        std::ostringstream ss;
        ss << std::hexfloat << s.parent << ' ' << static_cast<int>(s.kind) << ' '
           << static_cast<int>(s.unit) << ' ' << (s.kind == trace::SpanKind::kRun ? "" : s.label)
           << ' ' << s.start << ' ' << s.end << ' ' << a.level << ' ' << a.tasks << ' '
           << a.items << ' ' << a.waves << ' ' << a.ops << ' ' << a.max_ops << ' ' << a.work
           << ' ' << a.bytes << ' ' << a.coalesced_transactions << ' '
           << a.strided_transactions << ' ' << a.extent_words << ' ' << a.imbalance;
        out.push_back(ss.str());
    }
    return out;
}

TEST(IrregularEngine, KaratsubaSplitNeverLosesToMulticore) {
    // The property harness's worst case before the split read each task's
    // task_charge (seed 13088025008137445075): Karatsuba on 2 × 170
    // coefficients, where the advanced hybrid took 53,118.4 ticks against
    // multicore's 51,861 (+2.4%). Priced exactly, it takes 46,783.8.
    sim::HpuParams hw = platforms::hpu1();
    hw.name = "random-irregular";
    hw.cpu.p = 2;
    hw.cpu.contention = 0.0;
    hw.gpu.g = 256;
    hw.gpu.gamma = 0x1.2fba50f09e9cap-3;
    hw.link.lambda = 0x1.ce9598f63aef7p+8;
    hw.link.delta = 0x1.f9e46d4e34c41p-1;
    sim::Hpu h(hw);
    algos::KaratsubaArray alg;
    std::mt19937_64 rng(13);
    std::vector<std::int64_t> input(2 * 170);
    for (auto& c : input) c = static_cast<std::int64_t>(rng() % 201) - 100;
    for (const bool functional : {true, false}) {
        SCOPED_TRACE(functional ? "functional" : "analytic");
        ExecOptions opts;
        opts.functional = functional;
        auto d = input;
        const ExecReport rm = run_multicore(h.cpu(), alg, std::span(d), opts);
        d = input;
        AdvancedOptions a;
        a.exec = opts;
        const ExecReport ra = run_advanced_hybrid(h, alg, std::span(d), 0.5, 1, a);
        d = input;
        PipelinedOptions p;
        p.exec = opts;
        p.chunks = 4;
        const ExecReport rp = run_pipelined_hybrid(h, alg, std::span(d), 0.5, 1, p);
        EXPECT_LE(ra.total, rm.total);
        EXPECT_GT(ra.levels_gpu, 0u) << "the split no longer uses the device";
        EXPECT_EQ(rp.total, ra.total);
    }
}

TEST(IrregularEngine, HybridsIgnoreAlphaYAndChunks) {
    // A dynamic tree re-splits every level from its observed task list, so
    // the advanced hybrid's (α, y) — even values the regular producer would
    // reject — and the pipelined hybrid's K change nothing but the reported
    // chunks and the run label, on a platform where the split uses the
    // device.
    auto check = [](const auto& alg, const auto& input) {
        SCOPED_TRACE(alg.name());
        const auto want = hybrid_run(alg, input, false, 0.5, 1, 0);
        EXPECT_EQ(hybrid_run(alg, input, false, 0.01, 1, 0), want);
        EXPECT_EQ(hybrid_run(alg, input, false, 0.99, 40, 0), want);
        EXPECT_EQ(hybrid_run(alg, input, true, 0.5, 1, 1), want);
        EXPECT_EQ(hybrid_run(alg, input, true, 0.99, 40, 4), want);
    };
    const auto pts = random_points(300, 2026);
    check(algos::Quickhull{}, pts);
    check(algos::ClosestPair{}, pts);
    std::vector<std::int64_t> operands(2 * 151);
    std::mt19937_64 rng(7);
    for (auto& v : operands) v = static_cast<std::int64_t>(rng() % 1000);
    check(algos::KaratsubaArray{}, operands);
}

// ----------------------------------------------------------- prepare reuse

/// Karatsuba whose arena holds garbage right after every prepare(): a run
/// that reads a word before writing it shows in the product.
class PoisonedKaratsuba final : public algos::KaratsubaArray {
public:
    void prepare(std::uint64_t sz) const override {
        algos::KaratsubaArray::prepare(sz);
        std::fill(arena_.begin(), arena_.end(), std::int64_t{0x5a5a5a5a5a5a5a5});
    }
};

/// Quickhull whose edge table and partition staging hold garbage right
/// after every prepare() (the hull marks are cleared there and stay so).
class PoisonedQuickhull final : public algos::Quickhull {
public:
    void prepare(std::uint64_t n) const override {
        algos::Quickhull::prepare(n);
        std::fill(edge_from_.begin(), edge_from_.end(), algos::Pt{-777777777, 888888888});
        std::fill(edge_to_.begin(), edge_to_.end(), algos::Pt{999999999, -666666666});
        std::fill(scratch_.begin(), scratch_.end(), algos::Pt{123456789, -987654321});
        std::fill(codes_.begin(), codes_.end(), std::uint8_t{kLost});
    }
};

/// Runs `alg` on `input` through executor e (pooled, merge kernel on).
template <typename T>
std::vector<T> run_executor(int e, util::ThreadPool& pool, const LevelAlgorithm<T>& alg,
                            const std::vector<T>& input) {
    sim::Hpu h(gpu_friendly(), &pool);
    ExecOptions opts;
    opts.merge_path = true;
    std::vector<T> d = input;
    switch (e) {
        case 0: run_sequential(h.cpu(), alg, std::span(d), opts); break;
        case 1: run_multicore(h.cpu(), alg, std::span(d), opts); break;
        case 2: run_gpu(h, alg, std::span(d), opts); break;
        case 3: run_basic_hybrid(h, alg, std::span(d), opts); break;
        case 4: {
            AdvancedOptions a;
            a.exec = opts;
            run_advanced_hybrid(h, alg, std::span(d), 0.5, 1, a);
            break;
        }
        default: {
            PipelinedOptions p;
            p.exec = opts;
            p.chunks = 4;
            run_pipelined_hybrid(h, alg, std::span(d), 0.5, 1, p);
            break;
        }
    }
    return d;
}

TEST(PrepareReuse, KaratsubaReadsNoArenaWordBeforeWritingIt) {
    // Sizes n1, n2, n1 on one object: the tree is rebuilt on each change,
    // and every run starts from a poisoned arena.
    util::ThreadPool pool(3);
    PoisonedKaratsuba alg;
    std::mt19937_64 rng(31);
    for (const std::uint64_t m : {std::uint64_t{700}, std::uint64_t{333}, std::uint64_t{700}}) {
        std::vector<std::int64_t> in(2 * m);
        for (auto& c : in) c = static_cast<std::int64_t>(rng() % 201) - 100;
        std::vector<std::int64_t> want(2 * m, 0);
        for (std::uint64_t i = 0; i < m; ++i) {
            for (std::uint64_t j = 0; j < m; ++j) want[i + j] += in[i] * in[m + j];
        }
        for (int e = 0; e < 6; ++e) {
            EXPECT_EQ(run_executor(e, pool, alg, in), want) << "m=" << m << " executor " << e;
        }
    }
}

TEST(PrepareReuse, QuickhullReadsNoEdgeBeforeItsParentWritesIt) {
    // n1 is wide enough that the root pass and the level-0 divides run in
    // blocks across the pool; n2 is small. The reference is a fresh,
    // unpoisoned object run once per input.
    util::ThreadPool pool(3);
    PoisonedQuickhull alg;
    std::mt19937_64 rng(37);
    for (const std::uint64_t n : {(std::uint64_t{1} << 17) + 5, std::uint64_t{3001},
                                  (std::uint64_t{1} << 17) + 5}) {
        std::vector<algos::Pt> in(n);
        for (auto& p : in) {
            const double th = static_cast<double>(rng() % 1000003) * 6.283185307179586e-6;
            p = {std::llround(1e6 * std::cos(th)), std::llround(1e6 * std::sin(th))};
        }
        algos::Quickhull fresh;
        const std::vector<algos::Pt> want = run_executor(0, pool, fresh, in);
        ASSERT_GT(fresh.hull_count(), 100u);
        for (int e = 0; e < 6; ++e) {
            EXPECT_EQ(run_executor(e, pool, alg, in), want) << "n=" << n << " executor " << e;
            EXPECT_EQ(alg.hull_count(), fresh.hull_count()) << "n=" << n << " executor " << e;
        }
    }
}

}  // namespace
}  // namespace hpu::core
