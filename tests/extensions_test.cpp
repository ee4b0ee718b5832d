// Tests for the §7 future-work extensions and the extra workloads: blocked
// mergesort (sequential base cases), FFT as a LevelAlgorithm (bit-reversal
// pre-pass + butterfly levels), the parallel-tail GPU schedule (run_gpu's
// element-wise switch), and the Karatsuba / Strassen generic algorithms.
#include <gtest/gtest.h>

#include <numeric>

#include "algos/fft.hpp"
#include "algos/mergesort.hpp"
#include "algos/mergesort_blocked.hpp"
#include "algos/dc_problems.hpp"
#include "core/generic.hpp"
#include "core/hybrid.hpp"
#include "platforms/platforms.hpp"
#include "util/rng.hpp"

namespace hpu::algos {
namespace {

std::vector<std::int32_t> random_input(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
}

// ---- Blocked mergesort (§7: sequential base cases).

class BlockedSort : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(BlockedSort, SortsOnEveryExecutor) {
    const auto [block, lg] = GetParam();
    const std::uint64_t n = 1ull << lg;
    if (block > n) GTEST_SKIP();
    MergesortBlocked<std::int32_t> alg(block);
    auto base = random_input(n, block * 31 + static_cast<std::uint64_t>(lg));
    auto expect = base;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());

    auto d = base;
    core::run_sequential(h.cpu(), alg, std::span(d));
    EXPECT_EQ(d, expect) << "sequential";
    d = base;
    core::run_multicore(h.cpu(), alg, std::span(d));
    EXPECT_EQ(d, expect) << "multicore";
    d = base;
    core::run_gpu(h, alg, std::span(d));
    EXPECT_EQ(d, expect) << "gpu";
    d = base;
    core::run_basic_hybrid(h, alg, std::span(d));
    EXPECT_EQ(d, expect) << "basic hybrid";
    const std::uint64_t L = static_cast<std::uint64_t>(lg) - util::ilog2(block);
    if (L >= 1) {
        d = base;
        core::run_advanced_hybrid(h, alg, std::span(d), 0.2, std::min<std::uint64_t>(4, L));
        EXPECT_EQ(d, expect) << "advanced hybrid";
    }
}

INSTANTIATE_TEST_SUITE_P(BlocksAndSizes, BlockedSort,
                         ::testing::Combine(::testing::Values(2, 4, 16, 64),
                                            ::testing::Values(8, 10, 12)));

TEST(BlockedSort, TreeHeightShrinks) {
    MergesortBlocked<std::int32_t> b16(16);
    MergesortPlain<std::int32_t> plain;
    EXPECT_EQ(b16.base_size(), 16u);
    EXPECT_TRUE(b16.has_leaf_work());
    // 2^12 input: plain has 12 levels, blocked(16) has 8.
    EXPECT_DOUBLE_EQ(b16.recurrence().levels(4096.0), 8.0);
    EXPECT_DOUBLE_EQ(plain.recurrence().levels(4096.0), 12.0);
}

TEST(BlockedSort, AdmissibilityAccountsForBlock) {
    MergesortBlocked<std::int32_t> alg(16);
    EXPECT_TRUE(alg.admissible(1024));
    EXPECT_FALSE(alg.admissible(1000));
    EXPECT_FALSE(alg.admissible(8));  // below one block of 16
}

TEST(BlockedSort, ModerateBlocksBeatBlockOne) {
    // The §7 claim: cutting the deepest levels (where per-task overhead is
    // proportionally largest on the device) helps. On the CPU side with our
    // cost model the win is the removed merge levels vs the added
    // insertion-sort cost; a block of 8 must beat the plain bottom on the
    // sequential baseline within a small factor either way, and the GPU
    // path must improve because tiny kernels disappear.
    const std::uint64_t n = 1 << 14;
    sim::HpuParams hw = platforms::hpu1();
    hw.gpu.launch_overhead = 5000.0;  // make per-launch cost visible
    sim::Hpu h1(hw), h2(hw);
    MergesortPlain<std::int32_t> plain;   // same (strided) kernel family
    MergesortBlocked<std::int32_t> blocked(8);
    auto d1 = random_input(n, 1), d2 = d1;
    const auto tp = core::run_gpu(h1, plain, std::span(d1));
    const auto tb = core::run_gpu(h2, blocked, std::span(d2));
    EXPECT_TRUE(std::is_sorted(d2.begin(), d2.end()));
    // Blocked removes the three cheapest-per-task (and most
    // overhead-dominated) levels; device time must drop.
    EXPECT_LT(tb.gpu_busy, tp.gpu_busy);
}

// ---- FFT.

TEST(Fft, MatchesNaiveDftSequential) {
    const std::uint64_t n = 64;
    util::Rng rng(5);
    std::vector<std::complex<double>> in(n);
    for (auto& x : in) x = {rng.uniform_real(-1, 1), rng.uniform_real(-1, 1)};
    const auto expect = naive_dft(in);
    DcFft fft;
    sim::Hpu h(platforms::hpu1());
    auto d = in;
    core::run_sequential(h.cpu(), fft, std::span(d));
    for (std::uint64_t k = 0; k < n; ++k) {
        EXPECT_NEAR(std::abs(d[k] - expect[k]), 0.0, 1e-9) << "bin " << k;
    }
}

class FftExecutors : public ::testing::TestWithParam<int> {};

TEST_P(FftExecutors, AllExecutorsComputeTheSameSpectrum) {
    const std::uint64_t n = 1ull << GetParam();
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<std::complex<double>> in(n);
    for (auto& x : in) x = {rng.uniform_real(-1, 1), rng.uniform_real(-1, 1)};
    DcFft fft;
    sim::Hpu h(platforms::hpu1());
    auto ref = in;
    core::run_sequential(h.cpu(), fft, std::span(ref));

    auto d = in;
    core::run_multicore(h.cpu(), fft, std::span(d));
    for (std::uint64_t k = 0; k < n; ++k) EXPECT_NEAR(std::abs(d[k] - ref[k]), 0.0, 1e-9);

    d = in;
    core::run_gpu(h, fft, std::span(d));
    for (std::uint64_t k = 0; k < n; ++k) EXPECT_NEAR(std::abs(d[k] - ref[k]), 0.0, 1e-9);

    d = in;
    core::run_basic_hybrid(h, fft, std::span(d));
    for (std::uint64_t k = 0; k < n; ++k) EXPECT_NEAR(std::abs(d[k] - ref[k]), 0.0, 1e-9);

    if (GetParam() >= 8) {
        d = in;
        core::run_advanced_hybrid(h, fft, std::span(d), 0.25, 5);
        for (std::uint64_t k = 0; k < n; ++k) EXPECT_NEAR(std::abs(d[k] - ref[k]), 0.0, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftExecutors, ::testing::Values(4, 6, 8, 10));

TEST(Fft, ParsevalHolds) {
    const std::uint64_t n = 1 << 10;
    util::Rng rng(11);
    std::vector<std::complex<double>> in(n);
    double time_energy = 0.0;
    for (auto& x : in) {
        x = {rng.uniform_real(-1, 1), rng.uniform_real(-1, 1)};
        time_energy += std::norm(x);
    }
    DcFft fft;
    sim::Hpu h(platforms::hpu2());
    core::run_multicore(h.cpu(), fft, std::span(in));
    double freq_energy = 0.0;
    for (const auto& x : in) freq_energy += std::norm(x);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-9 * time_energy + 1e-12);
}

TEST(Fft, ChargesMatchRecurrence) {
    DcFft fft;
    std::vector<std::complex<double>> d(16, {1.0, 0.0});
    sim::OpCounter ops;
    fft.run_task(std::span(d), 2, 0, ops);  // task over a slice of 8
    EXPECT_DOUBLE_EQ(static_cast<double>(ops.cpu_ops()),
                     fft.recurrence().task_cost(16.0, 1.0));
}

// ---- Parallel-tail schedule (§7, item 1).

class ParallelTail : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelTail, SortsAtEverySwitchLevel) {
    const std::uint64_t n = 1 << 10;  // L = 10
    const std::uint64_t sw = GetParam();
    auto d = random_input(n, sw + 3);
    auto expect = d;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());
    MergesortCoalesced<std::int32_t> alg;
    const auto rep = core::run_gpu(h, alg, std::span(d), {}, true, sw);
    EXPECT_EQ(d, expect) << "switch=" << sw;
    EXPECT_GT(rep.total, 0.0);
}

INSTANTIATE_TEST_SUITE_P(SwitchLevels, ParallelTail, ::testing::Values(0, 1, 3, 5, 8, 10));

TEST(ParallelTail, BeatsAllGenericAboveSaturation) {
    // The point of the §7 extension: once levels have fewer tasks than g,
    // element-parallel kernels beat task-parallel ones.
    const std::uint64_t n = 1 << 16;
    sim::Hpu h(platforms::hpu1());
    MergesortCoalesced<std::int32_t> alg;
    core::ExecOptions an;
    an.functional = false;
    std::vector<std::int32_t> dummy(n);
    // Switch where a level's task count drops below g: ceil(log2 g).
    const std::uint64_t at_g = util::ceil_log2(h.params().gpu.g);
    const auto all_generic = core::run_gpu(h, alg, std::span(dummy), an, true, 0);
    const auto all_parallel = core::run_gpu(h, alg, std::span(dummy), an, true, 16);
    const auto mixed = core::run_gpu(h, alg, std::span(dummy), an, true, at_g);
    EXPECT_LT(mixed.total, all_generic.total);
    EXPECT_LT(mixed.total, all_parallel.total);
}

// ---- Karatsuba and Strassen through the generic engine.

std::vector<std::int64_t> naive_poly_mul(const std::vector<std::int64_t>& a,
                                         const std::vector<std::int64_t>& b) {
    std::vector<std::int64_t> out(a.size() + b.size() - 1, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
    }
    return out;
}

class KaratsubaProperty : public ::testing::TestWithParam<int> {};

TEST_P(KaratsubaProperty, BothDriversMatchNaive) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 1);
    const std::size_t n = 1ull << (GetParam() % 5 + 1);  // 2..32 coefficients
    Karatsuba::Param p;
    p.lhs.resize(n);
    p.rhs.resize(n);
    for (auto& x : p.lhs) x = rng.uniform_int(-20, 20);
    for (auto& x : p.rhs) x = rng.uniform_int(-20, 20);
    const auto expect = naive_poly_mul(p.lhs, p.rhs);
    const Karatsuba alg;
    EXPECT_EQ(core::run_recursive(alg, p), expect);
    EXPECT_EQ(core::run_breadth_first(alg, p), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KaratsubaProperty, ::testing::Range(0, 15));

TEST(Strassen, MatchesClassicalMatmul) {
    util::Rng rng(23);
    for (std::size_t n : {1u, 2u, 4u, 8u, 16u}) {
        Matrix a = Matrix::zero(n), b = Matrix::zero(n);
        for (auto& x : a.v) x = rng.uniform_real(-2, 2);
        for (auto& x : b.v) x = rng.uniform_real(-2, 2);
        const Strassen alg;
        const auto rec = core::run_recursive(alg, {a, b});
        const auto bf = core::run_breadth_first(alg, {a, b});
        const GenericMatmul classic;
        const auto expect = core::run_recursive(classic, {a, b});
        for (std::size_t i = 0; i < n * n; ++i) {
            EXPECT_NEAR(rec.v[i], expect.v[i], 1e-8) << "n=" << n;
            EXPECT_NEAR(bf.v[i], expect.v[i], 1e-8) << "n=" << n;
        }
    }
}

}  // namespace
}  // namespace hpu::algos
