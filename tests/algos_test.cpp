// Algorithm-level tests: the mergesort variants' charge accounting, the
// §6.3 coalescing win, the parallel-merge GPU sort (Fig. 9 comparator:
// run_gpu with every level element-wise), and property sweeps of every
// sorting path against std::sort.
#include <gtest/gtest.h>

#include <numeric>

#include "algos/binary_reduce.hpp"
#include "algos/closest_pair.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "platforms/platforms.hpp"
#include "util/rng.hpp"

namespace hpu::algos {
namespace {

std::vector<std::int32_t> random_input(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
}

TEST(MergesortPlain, TaskChargesMatchRecurrence) {
    MergesortPlain<std::int32_t> alg;
    alg.prepare(16);
    std::vector<std::int32_t> d = {5, 9, 1, 4, 8, 2, 7, 3, 0, 6, 10, 11, 12, 13, 14, 15};
    // Level with 2 tasks → slices of 8; run task 0 on a slice whose halves
    // are sorted.
    std::vector<std::int32_t> v = {1, 4, 5, 9, 2, 3, 7, 8, 0, 6, 10, 11, 12, 13, 14, 15};
    sim::OpCounter ops;
    alg.run_task(std::span(v), 2, 0, ops);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.begin() + 8));
    // f(8) = 3.5·8 = 28 CPU ops per task.
    EXPECT_DOUBLE_EQ(static_cast<double>(ops.cpu_ops()),
                     alg.recurrence().task_cost(16.0, 1.0));
    (void)d;
}

TEST(MergesortPlain, ChargesAreDataIndependent) {
    // Uniform charges are what make the analytic fast path exact; verify
    // two very different slices charge identically.
    MergesortPlain<std::int32_t> alg;
    alg.prepare(8);
    std::vector<std::int32_t> asc = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<std::int32_t> inter = {1, 3, 5, 7, 2, 4, 6, 8};
    sim::OpCounter o1, o2;
    alg.run_task(std::span(asc), 1, 0, o1);
    alg.run_task(std::span(inter), 1, 0, o2);
    EXPECT_EQ(o1.cpu_ops(), o2.cpu_ops());
}

TEST(MergesortPlain, RequiresPrepare) {
    MergesortPlain<std::int32_t> alg;
    std::vector<std::int32_t> v = {2, 1};
    sim::OpCounter ops;
    EXPECT_THROW(alg.run_task(std::span(v), 1, 0, ops), util::HpuError);
}

TEST(MergesortCoalesced, DevicePathIsCheaperThanPlainOnDevice) {
    const sim::DeviceParams dev = platforms::hpu1().gpu;
    MergesortPlain<std::int32_t> plain;
    MergesortCoalesced<std::int32_t> coal;
    EXPECT_LT(coal.device_ops_multiplier(dev), 1.0);
    EXPECT_GT(plain.device_ops_multiplier(dev), 5.0);
}

TEST(MergesortCoalesced, StaysTransparentToCpuSide) {
    // The CPU body of the coalesced variant is the inherited plain merge —
    // identical charges, identical behaviour.
    MergesortPlain<std::int32_t> plain;
    MergesortCoalesced<std::int32_t> coal;
    plain.prepare(8);
    coal.prepare(8);
    std::vector<std::int32_t> a = {1, 3, 5, 7, 0, 2, 4, 6};
    std::vector<std::int32_t> b = a;
    sim::OpCounter oa, ob;
    plain.run_task(std::span(a), 1, 0, oa);
    coal.run_task(std::span(b), 1, 0, ob);
    EXPECT_EQ(a, b);
    EXPECT_EQ(oa.cpu_ops(), ob.cpu_ops());
}

class SortEquivalence : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SortEquivalence, EveryPathSortsEveryInput) {
    const auto [lg, seed] = GetParam();
    const std::uint64_t n = 1ull << lg;
    auto base = random_input(n, seed);
    auto expect = base;
    std::sort(expect.begin(), expect.end());
    sim::Hpu h(platforms::hpu1());
    MergesortPlain<std::int32_t> plain;
    MergesortCoalesced<std::int32_t> coal;

    auto d = base;
    core::run_sequential(h.cpu(), plain, std::span(d));
    EXPECT_EQ(d, expect) << "sequential";

    d = base;
    core::run_multicore(h.cpu(), coal, std::span(d));
    EXPECT_EQ(d, expect) << "multicore";

    d = base;
    core::run_gpu(h, coal, std::span(d));
    EXPECT_EQ(d, expect) << "gpu";

    d = base;
    core::run_basic_hybrid(h, coal, std::span(d));
    EXPECT_EQ(d, expect) << "basic";

    d = base;
    const std::uint64_t y = lg > 4 ? static_cast<std::uint64_t>(lg - 3) : 1u;
    core::run_advanced_hybrid(h, coal, std::span(d), 0.2, y);
    EXPECT_EQ(d, expect) << "advanced";

    d = base;
    core::run_gpu(h, plain, std::span(d), {}, true, static_cast<std::uint64_t>(lg));
    EXPECT_EQ(d, expect) << "parallel-gpu";
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, SortEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 5, 8, 11, 13),
                                            ::testing::Values(0, 1, 2)));

TEST(SortEquivalence, DuplicateHeavyInputs) {
    // All-equal and two-value inputs exercise merge tie-breaking.
    sim::Hpu h(platforms::hpu1());
    MergesortCoalesced<std::int32_t> coal;
    std::vector<std::int32_t> same(1 << 8, 7);
    auto expect = same;
    core::run_basic_hybrid(h, coal, std::span(same));
    EXPECT_EQ(same, expect);

    util::Rng rng(5);
    auto binary = rng.int_vector(1 << 10, 0, 1);
    expect = binary;
    std::sort(expect.begin(), expect.end());
    core::run_advanced_hybrid(h, coal, std::span(binary), 0.3, 6);
    EXPECT_EQ(binary, expect);
}

TEST(SortEquivalence, AlreadySortedAndReversed) {
    sim::Hpu h(platforms::hpu2());
    MergesortCoalesced<std::int32_t> coal;
    std::vector<std::int32_t> asc(1 << 10);
    std::iota(asc.begin(), asc.end(), 0);
    auto expect = asc;
    auto d = asc;
    core::run_advanced_hybrid(h, coal, std::span(d), 0.2, 5);
    EXPECT_EQ(d, expect);
    std::reverse(d.begin(), d.end());
    core::run_basic_hybrid(h, coal, std::span(d));
    EXPECT_EQ(d, expect);
}

TEST(ParallelGpu, TimesScaleWithLogSquared) {
    sim::Hpu h(platforms::hpu1());
    MergesortPlain<std::int32_t> plain;
    core::ExecOptions an;
    an.functional = false;
    std::vector<std::int32_t> d1(1 << 10), d2(1 << 20);
    const auto s = core::run_gpu(h, plain, std::span(d1), an, true, 10);
    const auto l = core::run_gpu(h, plain, std::span(d2), an, true, 20);
    EXPECT_GT(l.gpu_busy, s.gpu_busy);
    // Large inputs saturate the device: time per element per level stops
    // shrinking once n >> g.
    EXPECT_GT(l.gpu_busy / s.gpu_busy, 100.0);
}

TEST(ParallelGpu, TransferShareShrinksRelativeCost) {
    sim::Hpu h(platforms::hpu1());
    MergesortPlain<std::int32_t> plain;
    core::ExecOptions an;
    an.functional = false;
    std::vector<std::int32_t> d(1 << 20);
    const auto r = core::run_gpu(h, plain, std::span(d), an, true, 20);
    // Fig. 9: transfers shave the speedup but don't dominate at large n.
    EXPECT_LT(r.transfer, r.gpu_busy);
    EXPECT_GT(r.transfer, 0.0);
}

TEST(ParallelGpu, RejectsNonPowerOfTwo) {
    sim::Hpu h(platforms::hpu1());
    MergesortPlain<std::int32_t> plain;
    std::vector<std::int32_t> odd(1000);
    EXPECT_THROW(core::run_gpu(h, plain, std::span(odd), {}, true, 10), util::HpuError);
}

TEST(ParallelGpu, StableForDuplicates) {
    sim::Hpu h(platforms::hpu1());
    MergesortPlain<std::int32_t> plain;
    auto d = random_input(1 << 12, 3);
    for (auto& x : d) x &= 0xF;  // heavy duplication
    auto expect = d;
    std::sort(expect.begin(), expect.end());
    core::run_gpu(h, plain, std::span(d), {}, true, 12);
    EXPECT_EQ(d, expect);
}

TEST(BinaryReduce, ChargesMatchRecurrence) {
    const auto alg = make_sum<std::int32_t>();
    std::vector<std::int32_t> v = {1, 2, 3, 4};
    sim::OpCounter ops;
    alg.run_task(std::span(v), 1, 0, ops);
    EXPECT_DOUBLE_EQ(static_cast<double>(ops.cpu_ops()),
                     alg.recurrence().task_cost(4.0, 0.0));
    EXPECT_EQ(v[0], 1 + 3);  // slice-local combine: slice[0] += slice[mid]
}

// ------------------------------------------------ irregular admissibility

// The irregular algorithms own their divide arithmetic (ceil/floor splits,
// data-dependent partitions), so admissible() must not inherit the regular
// power-of-b test: any pair-bearing n for the geometric algorithms, any
// even buffer (two same-length operands) for Karatsuba.

TEST(IrregularAdmissibility, GeometricAlgorithmsAcceptAnyPairBearingSize) {
    Quickhull qh;
    ClosestPair cp;
    for (const std::uint64_t n :
         {2ull, 3ull, 7ull, 97ull, 251ull, 300ull, 1000ull, 1024ull}) {
        EXPECT_TRUE(qh.admissible(n)) << "quickhull n=" << n;
        EXPECT_TRUE(cp.admissible(n)) << "closest-pair n=" << n;
    }
    for (const std::uint64_t n : {0ull, 1ull}) {
        EXPECT_FALSE(qh.admissible(n)) << "quickhull n=" << n;
        EXPECT_FALSE(cp.admissible(n)) << "closest-pair n=" << n;
    }
}

TEST(IrregularAdmissibility, KaratsubaAcceptsAnyEvenBufferIncludingTwiceOdd) {
    KaratsubaArray ka;
    // 2·151 and 2·163: twice an odd prime — the ceil/floor child sizes are
    // as uneven as they get, and still admissible.
    for (const std::uint64_t sz : {2ull, 6ull, 302ull, 320ull, 326ull, 4096ull}) {
        EXPECT_TRUE(ka.admissible(sz)) << "karatsuba sz=" << sz;
    }
    for (const std::uint64_t sz : {0ull, 1ull, 3ull, 151ull, 303ull}) {
        EXPECT_FALSE(ka.admissible(sz)) << "karatsuba sz=" << sz;
    }
}

TEST(IrregularAdmissibility, RegularAlgorithmsKeepThePowerOfBTest) {
    // The base-class hook is untouched: mergesort still wants base·2^k.
    MergesortPlain<std::int32_t> ms;
    EXPECT_TRUE(ms.admissible(256));
    EXPECT_FALSE(ms.admissible(300));
    EXPECT_FALSE(ms.admissible(251));
}

}  // namespace
}  // namespace hpu::algos
