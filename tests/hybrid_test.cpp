// Hybrid scheduler tests: correctness of the basic and advanced schedulers
// over randomized inputs and (α, y) grids, the two-transfer invariant of
// §5.2, and agreement between the simulated schedule and the analytical
// model at the model's operating point.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/fft.hpp"
#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "model/advanced.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

std::vector<std::int32_t> random_input(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
}

/// Transfer spans of a traced run labelled "<algorithm>/<what>".
std::size_t transfer_spans(const trace::TraceSession& s, const std::string& what) {
    return static_cast<std::size_t>(
        std::count_if(s.spans().begin(), s.spans().end(), [&](const trace::Span& sp) {
            return sp.kind == trace::SpanKind::kTransfer && sp.label.ends_with("/" + what);
        }));
}

TEST(BasicHybrid, SortsCorrectly) {
    const std::uint64_t n = 1 << 14;
    auto data = random_input(n, 1);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    run_basic_hybrid(h, alg, std::span(data));
    EXPECT_EQ(data, expect);
}

TEST(BasicHybrid, ExactlyOneRoundTrip) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 12, 2);
    trace::TraceSession session;
    ExecOptions opts;
    opts.trace = &session;
    run_basic_hybrid(h, alg, std::span(data), opts);
    EXPECT_EQ(session.count(trace::SpanKind::kTransfer), 2u);
    EXPECT_EQ(transfer_spans(session, "xfer-in"), 1u);
    EXPECT_EQ(transfer_spans(session, "xfer-out"), 1u);
}

TEST(BasicHybrid, BeatsMulticoreAndGpuOnly) {
    const std::uint64_t n = 1 << 16;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    ExecOptions an;
    an.functional = false;
    std::vector<std::int32_t> dummy(n);
    const auto mc = run_multicore(h.cpu(), alg, std::span(dummy), an);
    const auto gp = run_gpu(h, alg, std::span(dummy), an);
    const auto bh = run_basic_hybrid(h, alg, std::span(dummy), an);
    EXPECT_LT(bh.total, mc.total);
    EXPECT_LT(bh.total, gp.total);
}

TEST(BasicHybrid, WeakGpuFallsBackToCpu) {
    sim::HpuParams hw = platforms::hpu1();
    hw.gpu.g = 8;  // γ·g < p
    sim::Hpu h(hw);
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 10, 3);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    const auto rep = run_basic_hybrid(h, alg, std::span(data));
    EXPECT_EQ(data, expect);
    EXPECT_EQ(rep.levels_gpu, 0u);
    EXPECT_DOUBLE_EQ(rep.transfer, 0.0);
}

TEST(BasicHybrid, FallbackRunsTheHostPrePassOnce) {
    // Three cores and a weak device (γ·g < p): the basic hybrid falls back
    // to the multicore executor, which must see the input untouched — the
    // FFT's bit-reversal pre-pass applied twice is the identity again.
    sim::HpuParams hw = platforms::hpu2();
    hw.cpu.p = 3;
    hw.gpu.g = 90;
    hw.gpu.gamma = 1.0 / 37.0;
    hw.gpu.launch_overhead = 0.7;
    hw.link.lambda = 1234.567;
    hw.link.delta = 0.731;
    ASSERT_LT(hw.gpu_power(), 3.0);
    sim::Hpu h(hw);
    algos::DcFft alg;
    std::vector<std::complex<double>> wave(1024);
    for (std::size_t i = 0; i < wave.size(); ++i) {
        wave[i] = {static_cast<double>(i % 97) - 48.0, static_cast<double>(i * 7 % 31) - 15.0};
    }
    auto basic = wave;
    auto multicore = wave;
    const auto rb = run_basic_hybrid(h, alg, std::span(basic));
    const auto rm = run_multicore(h.cpu(), alg, std::span(multicore));
    EXPECT_EQ(rb.levels_gpu, 0u);
    EXPECT_EQ(rb.total, rm.total);
    EXPECT_TRUE(basic == multicore) << "fallback output differs from the multicore run";
}

TEST(BasicHybrid, DeviceLaneSpanStartsKeepTheirAssociation) {
    // The basic hybrid's device lane forms a span start as
    // origin + (at − origin), origin being the fractional host pre-pass
    // time (p = 7). Once `at` is two or more additions past origin that
    // differs from `at` in the last bit: here the level-5 launch. Pinned
    // as hexfloats, functional and analytic.
    sim::HpuParams hw = platforms::hpu2();
    hw.cpu.p = 7;
    hw.gpu.g = 90;
    hw.gpu.gamma = 0.5;
    hw.gpu.launch_overhead = 0.0;
    hw.link.lambda = 5.0;
    hw.link.delta = 0.3;
    const std::vector<std::pair<std::string, double>> want = {
        {"dc-fft/basic-hybrid", 0x0p+0},
        {"dc-fft/pre", 0x0p+0},
        {"dc-fft/gpu-phase", 0x1.b6db6db6db6dbp+5},
        {"dc-fft/xfer-in", 0x1.b6db6db6db6dbp+5},
        {"dc-fft/gpu-leaves[128 tasks]", 0x1.8907507507507p+6},
        {"dc-fft/gpu-level[64 tasks]", 0x1.9907507507507p+6},
        {"dc-fft/gpu-level[32 tasks]", 0x1.e907507507508p+6},
        {"dc-fft/gpu-level[16 tasks]", 0x1.4483a83a83a84p+7},
        {"dc-fft/xfer-out", 0x1.e483a83a83a84p+7},
        {"dc-fft/cpu-levels", 0x1.1da83a83a83a8p+8},
        {"dc-fft/cpu-level[8 tasks]", 0x1.1da83a83a83a8p+8},
        {"dc-fft/cpu-level[4 tasks]", 0x1.bda83a83a83a8p+8},
        {"dc-fft/cpu-level[2 tasks]", 0x1.2ed41d41d41d4p+9},
        {"dc-fft/cpu-level[1 tasks]", 0x1.ced41d41d41d4p+9},
    };
    for (const bool functional : {true, false}) {
        SCOPED_TRACE(functional ? "functional" : "analytic");
        sim::Hpu h(hw);
        algos::DcFft alg;
        std::vector<std::complex<double>> wave(128);
        for (std::size_t i = 0; i < wave.size(); ++i) {
            wave[i] = {static_cast<double>(i % 97) - 48.0,
                       static_cast<double>(i * 7 % 31) - 15.0};
        }
        trace::TraceSession ts;
        ExecOptions o;
        o.functional = functional;
        o.trace = &ts;
        const ExecReport r = run_basic_hybrid(h, alg, std::span(wave), o);
        EXPECT_EQ(r.total, 0x1.876a0ea0ea0eap+10);
        std::vector<std::pair<std::string, double>> got;
        for (const trace::Span& s : ts.spans()) {
            if (s.kind != trace::SpanKind::kWave) got.emplace_back(s.label, s.start);
        }
        EXPECT_EQ(got, want);
    }
}

class AdvancedHybridGrid
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t, std::uint64_t>> {};

TEST_P(AdvancedHybridGrid, SortsForAllParameterCombinations) {
    const auto [alpha, y, seed] = GetParam();
    const std::uint64_t n = 1 << 12;  // L = 12
    auto data = random_input(n, seed);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    const auto rep = run_advanced_hybrid(h, alg, std::span(data), alpha, y);
    EXPECT_EQ(data, expect) << "alpha=" << alpha << " y=" << y;
    EXPECT_NEAR(rep.alpha_effective, alpha, 0.51);  // quantized to split granularity
    EXPECT_GT(rep.total, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaYGrid, AdvancedHybridGrid,
    ::testing::Combine(::testing::Values(0.05, 0.16, 0.3, 0.5, 0.8),
                       ::testing::Values(1, 4, 7, 10, 12),
                       ::testing::Values(101)));

TEST(AdvancedHybrid, PlainVariantAlsoSorts) {
    const std::uint64_t n = 1 << 12;
    auto data = random_input(n, 6);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu2());
    algos::MergesortPlain<std::int32_t> alg;
    run_advanced_hybrid(h, alg, std::span(data), 0.25, 8);
    EXPECT_EQ(data, expect);
}

TEST(AdvancedHybrid, ExactlyTwoTransfers) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 12, 7);
    trace::TraceSession session;
    AdvancedOptions adv;
    adv.exec.trace = &session;
    run_advanced_hybrid(h, alg, std::span(data), 0.2, 8, adv);
    // §5.2: "we restrict the number of data transfer between cpu and gpu to
    // two points during the execution".
    EXPECT_EQ(session.count(trace::SpanKind::kTransfer), 2u);
    EXPECT_EQ(transfer_spans(session, "xfer-in"), 1u);
    EXPECT_EQ(transfer_spans(session, "xfer-out"), 1u);
}

TEST(AdvancedHybrid, RejectsBadParameters) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 10, 8);
    EXPECT_THROW(run_advanced_hybrid(h, alg, std::span(data), 0.0, 5), util::HpuError);
    EXPECT_THROW(run_advanced_hybrid(h, alg, std::span(data), 1.0, 5), util::HpuError);
    EXPECT_THROW(run_advanced_hybrid(h, alg, std::span(data), 0.2, 0), util::HpuError);
    EXPECT_THROW(run_advanced_hybrid(h, alg, std::span(data), 0.2, 11), util::HpuError);
}

TEST(AdvancedHybrid, SimulatedTimeTracksModelAtOptimum) {
    const std::uint64_t n = 1 << 20;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    model::AdvancedModel m(h.params(), alg.recurrence(), static_cast<double>(n));
    const auto opt = m.optimize();
    ExecOptions an;
    an.functional = false;
    AdvancedOptions adv;
    adv.exec = an;
    std::vector<std::int32_t> dummy(n);
    const auto seq = run_sequential(h.cpu(), alg, std::span(dummy), an);
    const auto rep = run_advanced_hybrid(h, alg, std::span(dummy), opt.alpha,
                                         static_cast<std::uint64_t>(std::llround(opt.y)), adv);
    const double simulated = seq.total / rep.total;
    EXPECT_NEAR(simulated, opt.speedup, opt.speedup * 0.10);
}

TEST(AdvancedHybrid, ParallelPhaseBalancedAtModelOptimum) {
    // Fig. 8's blue line: at the model's (α*, y*) the GPU busy time and the
    // CPU parallel-phase time are close to equal.
    const std::uint64_t n = 1 << 20;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    model::AdvancedModel m(h.params(), alg.recurrence(), static_cast<double>(n));
    const auto opt = m.optimize();
    ExecOptions an;
    an.functional = false;
    AdvancedOptions adv;
    adv.exec = an;
    std::vector<std::int32_t> dummy(n);
    const auto rep = run_advanced_hybrid(h, alg, std::span(dummy), opt.alpha,
                                         static_cast<std::uint64_t>(std::llround(opt.y)), adv);
    // Kernel time vs CPU parallel-phase time (the model balances compute;
    // transfers sit outside the Tg = Tc equation).
    const double ratio = rep.gpu_busy / rep.cpu_busy;
    EXPECT_NEAR(ratio, 1.0, 0.35);
}

TEST(AdvancedHybrid, OffOptimalParametersAreSlower) {
    const std::uint64_t n = 1 << 18;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    model::AdvancedModel m(h.params(), alg.recurrence(), static_cast<double>(n));
    const auto opt = m.optimize();
    ExecOptions an;
    an.functional = false;
    AdvancedOptions adv;
    adv.exec = an;
    std::vector<std::int32_t> dummy(n);
    const auto best = run_advanced_hybrid(h, alg, std::span(dummy), opt.alpha,
                                          static_cast<std::uint64_t>(std::llround(opt.y)), adv);
    // Pathological α: give the CPU almost everything.
    const auto bad = run_advanced_hybrid(h, alg, std::span(dummy), 0.9, 10, adv);
    EXPECT_LT(best.total, bad.total);
}

TEST(AdvancedHybrid, WorksOnReductions) {
    const std::uint64_t n = 1 << 14;
    util::Rng rng(10);
    auto base = rng.int_vector(n, -100, 100);
    const std::int64_t expect = std::accumulate(base.begin(), base.end(), std::int64_t{0});
    sim::Hpu h(platforms::hpu2());
    const auto alg = algos::make_sum<std::int32_t>();
    auto d = base;
    run_advanced_hybrid(h, alg, std::span(d), 0.3, 7);
    EXPECT_EQ(d[0], expect);
    d = base;
    run_basic_hybrid(h, alg, std::span(d));
    EXPECT_EQ(d[0], expect);
}

TEST(AdvancedHybrid, ContentionPenaltySlowsMeasuredRuns) {
    // The Fig. 8 "measured vs predicted" gap: enabling the LLC contention
    // model must lower the simulated speedup for cache-busting sizes.
    const std::uint64_t n = 1 << 22;  // 2·n·4 bytes = 32 MB >> 8 MB LLC
    sim::HpuParams plain_hw = platforms::hpu1();
    sim::HpuParams contended = plain_hw;
    contended.cpu.contention = 0.08;
    algos::MergesortCoalesced<std::int32_t> alg;
    ExecOptions an;
    an.functional = false;
    AdvancedOptions adv;
    adv.exec = an;
    std::vector<std::int32_t> dummy(n);
    sim::Hpu h1(plain_hw), h2(contended);
    const auto fast = run_advanced_hybrid(h1, alg, std::span(dummy), 0.17, 10, adv);
    const auto slow = run_advanced_hybrid(h2, alg, std::span(dummy), 0.17, 10, adv);
    EXPECT_GT(slow.total, fast.total);
}

}  // namespace
}  // namespace hpu::core
