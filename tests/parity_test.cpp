// Cross-cutting parity and invariant sweeps:
//  * analytic vs functional virtual times agree for uniform-cost
//    algorithms on every executor and platform, also under LLC contention;
//  * ExecReport invariants hold across an (algorithm × platform × n) grid;
//  * the advanced scheduler's report decomposition is internally
//    consistent across an (α, y) grid.
#include <gtest/gtest.h>

#include "algos/binary_reduce.hpp"
#include "algos/fft.hpp"
#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

enum class Alg { kMergePlain, kMergeCoalesced, kSum };

const LevelAlgorithm<std::int32_t>& algorithm(Alg a) {
    static const algos::MergesortPlain<std::int32_t> plain;
    static const algos::MergesortCoalesced<std::int32_t> coal;
    static const algos::DcSum<std::int32_t> sum = algos::make_sum<std::int32_t>();
    switch (a) {
        case Alg::kMergePlain: return plain;
        case Alg::kMergeCoalesced: return coal;
        case Alg::kSum: return sum;
    }
    throw util::HpuError("unreachable");
}

class AnalyticParity
    : public ::testing::TestWithParam<std::tuple<Alg, std::string, int>> {};

TEST_P(AnalyticParity, FunctionalAndAnalyticTimesAgree) {
    const auto [which, platform, lg] = GetParam();
    const auto& alg = algorithm(which);
    const std::uint64_t n = 1ull << lg;
    sim::Hpu h(platforms::by_name(platform).params);
    util::Rng rng(static_cast<std::uint64_t>(lg));
    auto fun_data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    std::vector<std::int32_t> ana_data(n);
    ExecOptions fun, ana;
    fun.functional = true;
    ana.functional = false;

    const auto tol = [](sim::Ticks t) { return std::max(1e-9, t * 1e-9); };

    {
        auto d = fun_data;
        const auto f = run_sequential(h.cpu(), alg, std::span(d), fun);
        const auto a = run_sequential(h.cpu(), alg, std::span(ana_data), ana);
        EXPECT_NEAR(f.total, a.total, tol(f.total)) << "sequential";
    }
    {
        auto d = fun_data;
        const auto f = run_multicore(h.cpu(), alg, std::span(d), fun);
        const auto a = run_multicore(h.cpu(), alg, std::span(ana_data), ana);
        EXPECT_NEAR(f.total, a.total, tol(f.total)) << "multicore";
    }
    {
        auto d = fun_data;
        const auto f = run_gpu(h, alg, std::span(d), fun);
        const auto a = run_gpu(h, alg, std::span(ana_data), ana);
        EXPECT_NEAR(f.total, a.total, tol(f.total)) << "gpu";
    }
    if (which != Alg::kSum) {
        // Element-wise levels (the mergesorts' Fig. 9 merge): the §7
        // parallel tail at switch ceil(L/2), and Fig. 9 at switch L.
        const auto L = static_cast<std::uint64_t>(lg);
        for (const std::uint64_t sw : {(L + 1) / 2, L}) {
            auto d = fun_data;
            const auto f = run_gpu(h, alg, std::span(d), fun, true, sw);
            const auto a = run_gpu(h, alg, std::span(ana_data), ana, true, sw);
            EXPECT_NEAR(f.total, a.total, tol(f.total)) << "gpu, element-wise from " << sw;
            EXPECT_NEAR(f.gpu_busy, a.gpu_busy, tol(f.gpu_busy)) << "element-wise from " << sw;
        }
    }
    {
        auto d = fun_data;
        const auto f = run_basic_hybrid(h, alg, std::span(d), fun);
        const auto a = run_basic_hybrid(h, alg, std::span(ana_data), ana);
        EXPECT_NEAR(f.total, a.total, tol(f.total)) << "basic hybrid";
    }
    if (lg >= 8) {
        AdvancedOptions af, aa;
        af.exec = fun;
        aa.exec = ana;
        auto d = fun_data;
        const auto f = run_advanced_hybrid(h, alg, std::span(d), 0.2, 6, af);
        const auto a = run_advanced_hybrid(h, alg, std::span(ana_data), 0.2, 6, aa);
        EXPECT_NEAR(f.total, a.total, tol(f.total)) << "advanced hybrid";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AnalyticParity,
    ::testing::Combine(::testing::Values(Alg::kMergePlain, Alg::kMergeCoalesced, Alg::kSum),
                       ::testing::Values(std::string("HPU1"), std::string("HPU2")),
                       ::testing::Values(6, 10, 12)));

TEST(AnalyticParity, ContendedLlcPricesEverySliceFromTheWholeInput) {
    // With LLC contention on, a CPU level's working set must be priced from
    // the whole input in both modes — also for the advanced and pipelined
    // CPU slice and finish phase, where the functional run only holds a
    // slice of the array.
    sim::HpuParams hw = platforms::hpu1();
    hw.cpu.contention = 0.3;
    hw.cpu.llc_bytes = 16 << 10;
    algos::MergesortPlain<std::int32_t> alg;
    const std::uint64_t n = 1 << 14;
    util::Rng rng(12);
    const auto input = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    std::vector<std::int32_t> ana_data(n);
    const auto run = [&](int executor, bool functional) {
        sim::Hpu h(hw);
        auto d = functional ? input : ana_data;
        ExecOptions o;
        o.functional = functional;
        switch (executor) {
            case 0: return run_sequential(h.cpu(), alg, std::span(d), o);
            case 1: return run_multicore(h.cpu(), alg, std::span(d), o);
            case 2: return run_gpu(h, alg, std::span(d), o);
            case 3: return run_basic_hybrid(h, alg, std::span(d), o);
            case 4: {
                AdvancedOptions adv;
                adv.exec = o;
                return run_advanced_hybrid(h, alg, std::span(d), 0.3, 8, adv);
            }
            default: {
                PipelinedOptions pip;
                pip.exec = o;
                return run_pipelined_hybrid(h, alg, std::span(d), 0.3, 8, pip);
            }
        }
    };
    const auto tol = [](sim::Ticks t) { return std::max(1e-9, t * 1e-9); };
    for (int executor = 0; executor < 6; ++executor) {
        const ExecReport f = run(executor, true);
        const ExecReport a = run(executor, false);
        EXPECT_NEAR(f.total, a.total, tol(f.total)) << "executor " << executor;
        EXPECT_NEAR(f.cpu_busy, a.cpu_busy, tol(f.cpu_busy)) << "executor " << executor;
        EXPECT_NEAR(f.finish, a.finish, tol(f.finish)) << "executor " << executor;
    }
}

class AdvancedInvariants
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(AdvancedInvariants, ReportDecompositionIsConsistent) {
    const auto [alpha, y] = GetParam();
    const std::uint64_t n = 1 << 14;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    AdvancedOptions adv;
    adv.exec.functional = false;
    std::vector<std::int32_t> dummy(n);
    const auto rep = run_advanced_hybrid(h, alg, std::span(dummy), alpha, y, adv);

    // The sync point dominates both unit timelines; the finish phase and
    // transfers are non-negative; the total covers everything.
    EXPECT_GE(rep.total, rep.cpu_busy);
    EXPECT_GE(rep.total, rep.gpu_busy + rep.transfer);
    EXPECT_GE(rep.finish, 0.0);
    EXPECT_GE(rep.total + 1e-9, std::max(rep.cpu_busy, rep.gpu_busy + rep.transfer) + rep.finish);
    // Exactly two transfers of the GPU slice each.
    const double slice = (1.0 - rep.alpha_effective) * static_cast<double>(n);
    EXPECT_NEAR(rep.transfer,
                2.0 * h.params().link.transfer_time(
                          static_cast<std::uint64_t>(std::llround(slice))),
                1e-6);
    // α quantization respects the split granularity: the split level is
    // clamped to min(y, log2(64)) slices (plus the 1-slice clamp when α
    // rounds to zero slices).
    const double slices = std::pow(2.0, std::min<std::uint64_t>(y, 6));
    EXPECT_NEAR(rep.alpha_effective, alpha, 1.0 / slices + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AlphaY, AdvancedInvariants,
                         ::testing::Combine(::testing::Values(0.1, 0.17, 0.33, 0.6),
                                            ::testing::Values(2, 6, 9, 13)));

TEST(Determinism, RepeatedRunsAreBitIdentical) {
    // The virtual clock must be noise-free: two identical runs produce the
    // same times to the last bit (this is what makes the golden figures
    // reproducible).
    const std::uint64_t n = 1 << 12;
    util::Rng rng(4);
    const auto base = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    algos::MergesortCoalesced<std::int32_t> alg;
    sim::Ticks first = 0;
    for (int run = 0; run < 3; ++run) {
        sim::Hpu h(platforms::hpu1());
        auto d = base;
        const auto rep = run_advanced_hybrid(h, alg, std::span(d), 0.2, 7);
        if (run == 0) {
            first = rep.total;
        } else {
            EXPECT_EQ(rep.total, first);
        }
    }
}

TEST(Determinism, TransferSpansMatchReport) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    util::Rng rng(8);
    auto d = rng.int_vector(1 << 12, 0, 1 << 13);
    trace::TraceSession session;
    AdvancedOptions adv;
    adv.exec.trace = &session;
    const auto rep = run_advanced_hybrid(h, alg, std::span(d), 0.25, 8, adv);
    // The transfer spans add up to the report's link time.
    EXPECT_NEAR(session.total(trace::SpanKind::kTransfer), rep.transfer, 1e-9);
    // No span ends after the report's total (the run span ends exactly at it).
    EXPECT_LE(session.span_end(), rep.total + 1e-6);
}

}  // namespace
}  // namespace hpu::core
