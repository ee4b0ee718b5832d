// Layer-2 executor tests: every executor must produce the same output as
// std::sort / a plain reduction, and the analytic fast path must price
// levels identically to functional execution for uniform-cost algorithms.
#include <gtest/gtest.h>

#include <numeric>

#include "algos/binary_reduce.hpp"
#include "algos/mergesort.hpp"
#include "core/executors.hpp"
#include "platforms/platforms.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

std::vector<std::int32_t> random_input(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
}

TEST(Sequential, SortsAndPricesLikeSeqWork) {
    const std::uint64_t n = 1 << 12;
    auto data = random_input(n, 3);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> alg;
    const auto rep = run_sequential(h.cpu(), alg, std::span(data));
    EXPECT_EQ(data, expect);
    // Virtual time == the recurrence's sequential work (charges and model
    // agree by construction; this is the cross-validation DESIGN.md §6
    // promises).
    EXPECT_NEAR(rep.total, alg.recurrence().seq_work(static_cast<double>(n)), 1e-6);
}

TEST(Sequential, AnalyticModeMatchesFunctionalTime) {
    const std::uint64_t n = 1 << 10;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> alg;
    auto data = random_input(n, 4);
    const auto fun = run_sequential(h.cpu(), alg, std::span(data));
    std::vector<std::int32_t> untouched(n);
    ExecOptions opts;
    opts.functional = false;
    const auto ana = run_sequential(h.cpu(), alg, std::span(untouched), opts);
    EXPECT_NEAR(fun.total, ana.total, fun.total * 1e-12);
    EXPECT_EQ(untouched, std::vector<std::int32_t>(n));  // analytic mode left data alone
}

TEST(Multicore, SortsAndSpeedsUp) {
    const std::uint64_t n = 1 << 14;
    auto data = random_input(n, 5);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> alg;
    auto copy = data;
    const auto seq = run_sequential(h.cpu(), alg, std::span(copy));
    const auto par = run_multicore(h.cpu(), alg, std::span(data));
    EXPECT_EQ(data, expect);
    const double speedup = seq.total / par.total;
    EXPECT_GT(speedup, 1.5);
    EXPECT_LE(speedup, 4.0 + 1e-9);
    // Mergesort's sequential top merges cap multicore speedup well below p
    // (paper: 2.5–3× on 4 cores).
    EXPECT_LT(speedup, 3.5);
}

TEST(Multicore, UsesAllCoresOnDeepLevels) {
    sim::CpuUnit cpu(sim::CpuParams{.p = 4});
    algos::MergesortPlain<std::int32_t> alg;
    auto data = random_input(1 << 12, 6);
    const auto rep = run_multicore(cpu, alg, std::span(data));
    // Deepest level: 2^11 tasks of cost 3.5·2 on 4 cores = 2^9·7.
    EXPECT_GT(rep.total, 0.0);
    EXPECT_EQ(rep.levels_cpu, 12u);
}

TEST(Gpu, PlainVariantSortsButIsSlow) {
    const std::uint64_t n = 1 << 12;
    auto data = random_input(n, 7);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> alg;
    auto copy = data;
    const auto seq = run_sequential(h.cpu(), alg, std::span(copy));
    const auto gpu = run_gpu(h, alg, std::span(data));
    EXPECT_EQ(data, expect);
    // Sequential merges of the top levels strangle a GPU-only run — this is
    // the paper's motivation for the hybrid (§6: "not readily made for
    // execution on a gpu").
    EXPECT_LT(seq.total / gpu.total, 1.0);
}

TEST(Gpu, CoalescedVariantSortsAndBeatsPlain) {
    const std::uint64_t n = 1 << 12;
    auto data = random_input(n, 8);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> plain;
    algos::MergesortCoalesced<std::int32_t> coal;
    auto d1 = data;
    const auto tp = run_gpu(h, plain, std::span(d1));
    const auto tc = run_gpu(h, coal, std::span(data));
    EXPECT_EQ(data, expect);
    EXPECT_EQ(d1, expect);
    // The §6.3 permutation must be a large win on the device.
    EXPECT_GT(tp.gpu_busy / tc.gpu_busy, 4.0);
}

TEST(Gpu, TransferTogglesCost) {
    const std::uint64_t n = 1 << 10;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto d1 = random_input(n, 9);
    auto d2 = d1;
    const auto with = run_gpu(h, alg, std::span(d1), {}, /*include_transfers=*/true);
    const auto without = run_gpu(h, alg, std::span(d2), {}, /*include_transfers=*/false);
    EXPECT_DOUBLE_EQ(without.transfer, 0.0);
    EXPECT_NEAR(with.total - without.total, 2.0 * h.params().link.transfer_time(n), 1e-9);
}

TEST(Executors, RejectBadInputSizes) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> alg;
    std::vector<std::int32_t> odd(1000);  // not a power of two
    EXPECT_THROW(run_sequential(h.cpu(), alg, std::span(odd)), util::HpuError);
    std::vector<std::int32_t> one(1);
    EXPECT_THROW(run_sequential(h.cpu(), alg, std::span(one)), util::HpuError);
}

class ReduceExecutorEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(ReduceExecutorEquivalence, AllExecutorsAgreeOnSum) {
    const auto [n, seed] = GetParam();
    util::Rng rng(seed);
    auto base = rng.int_vector(n, -1000, 1000);
    const std::int64_t expect = std::accumulate(base.begin(), base.end(), std::int64_t{0});
    sim::Hpu h(platforms::hpu2());
    const auto alg = algos::make_sum<std::int32_t>();

    auto d = base;
    run_sequential(h.cpu(), alg, std::span(d));
    EXPECT_EQ(d[0], expect);

    d = base;
    run_multicore(h.cpu(), alg, std::span(d));
    EXPECT_EQ(d[0], expect);

    d = base;
    run_gpu(h, alg, std::span(d));
    EXPECT_EQ(d[0], expect);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ReduceExecutorEquivalence,
    ::testing::Combine(::testing::Values(4, 64, 1024, 1 << 14),
                       ::testing::Values(11, 22, 33)));

TEST(Reduce, MaxAndMin) {
    util::Rng rng(77);
    auto base = rng.int_vector(1 << 10, -5000, 5000);
    const auto mx = *std::max_element(base.begin(), base.end());
    const auto mn = *std::min_element(base.begin(), base.end());
    sim::Hpu h(platforms::hpu1());
    auto d = base;
    const auto amax = algos::make_max<std::int32_t>();
    run_multicore(h.cpu(), amax, std::span(d));
    EXPECT_EQ(d[0], mx);
    d = base;
    const auto amin = algos::make_min<std::int32_t>();
    run_gpu(h, amin, std::span(d));
    EXPECT_EQ(d[0], mn);
}

TEST(Reports, FieldsAreConsistent) {
    const std::uint64_t n = 1 << 10;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto d = random_input(n, 12);
    const auto rep = run_gpu(h, alg, std::span(d));
    EXPECT_DOUBLE_EQ(rep.total, rep.gpu_busy + rep.transfer);
    EXPECT_EQ(rep.levels_gpu, 10u);
    EXPECT_EQ(rep.levels_cpu, 0u);
}

}  // namespace
}  // namespace hpu::core
