// Algorithm-level tests: the mergesort variants' charge accounting, the
// §6.3 coalescing win, the parallel-merge GPU sort (Fig. 9 comparator:
// run_gpu with every level element-wise), and property sweeps of every
// sorting path against std::sort.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "algos/binary_reduce.hpp"
#include "algos/closest_pair.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "platforms/platforms.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

TEST(MergesortCoalesced, GroupsRequirePrepare) {
    // A staged group writes into scratch sized by prepare().
    MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> v(64, 0);
    sim::OpCounter hook;
    alg.before_gpu_levels(std::span(v), 8, hook);
    std::vector<sim::OpCounter> ops(8);
    EXPECT_THROW(alg.run_device_group(std::span(v), 8, 0, std::span(ops)), util::HpuError);
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

// The §6.3 work-group kernel against the per-item strided walk. One device
// climb, entered at `counts[0]` tasks over input runs of m elements, runs
// its levels either through run_device_group in groups of `t` (t = 0: item
// by item through run_device_task) and is then un-interleaved. Returns the
// row-major output and every item's charges and access log, level by
// level.
template <typename T>
struct ClimbRun {
    std::vector<T> out;
    std::vector<sim::OpCounter> ops;
    std::vector<sim::ItemAccessLog> logs;
};

template <typename T>
ClimbRun<T> coalesced_climb(const std::vector<T>& input, const std::vector<std::uint64_t>& counts,
                            std::uint64_t t, util::ThreadPool* pool) {
    MergesortCoalesced<T> alg;
    alg.prepare(input.size());
    alg.bind_exec(util::MergeExec{pool, pool != nullptr});
    ClimbRun<T> r{input, {}, {}};
    std::uint64_t items = 0;
    for (const std::uint64_t c : counts) items += c;
    r.ops.resize(items);
    r.logs.resize(items);
    for (std::uint64_t i = 0; i < items; ++i) r.ops[i].trace = &r.logs[i];
    const std::span<T> d(r.out);
    sim::OpCounter hook;
    alg.before_gpu_levels(d, counts.front(), hook);
    std::uint64_t base = 0;
    for (const std::uint64_t count : counts) {
        const std::span<sim::OpCounter> level(r.ops.data() + base, count);
        if (t == 0) {
            for (std::uint64_t j = 0; j < count; ++j) alg.run_device_task(d, count, j, level[j]);
        } else {
            for (std::uint64_t first = 0; first < count; first += t) {
                alg.run_device_group(d, count, first,
                                     level.subspan(first, std::min(t, count - first)));
            }
        }
        alg.after_gpu_level(d, count, hook);
        base += count;
    }
    alg.after_gpu_levels(d, counts.back(), hook);
    return r;
}

bool same_access(const std::vector<sim::MemAccess>& a, const std::vector<sim::MemAccess>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const sim::MemAccess& x, const sim::MemAccess& y) {
                          return x.begin == y.begin && x.words == y.words && x.stride == y.stride;
                      });
}

enum class Keys { kUniform, kSorted, kReversed, kFewDistinct };

/// n keys of one class, each input run of m sorted (a merge level's input).
template <typename T>
std::vector<T> level_input(Keys keys, std::uint64_t n, std::uint64_t m, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<T> v(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        switch (keys) {
            case Keys::kUniform:
                v[i] = static_cast<T>(rng.uniform_int(-1000000, 1000000)) / T{2};
                break;
            case Keys::kSorted: v[i] = static_cast<T>(i); break;
            case Keys::kReversed: v[i] = static_cast<T>(n - i); break;
            case Keys::kFewDistinct: {
                // Eight values, two of them -0 and +0: equal keys whose bytes
                // differ for double, so the output shows which run won a tie.
                const std::int64_t k = rng.uniform_int(0, 7);
                v[i] = k == 0 ? -T{0} : static_cast<T>(k - 1);
                break;
            }
        }
    }
    for (std::uint64_t r = 0; r < n; r += m) {
        std::sort(v.begin() + static_cast<std::ptrdiff_t>(r),
                  v.begin() + static_cast<std::ptrdiff_t>(r + m));
    }
    return v;
}

template <typename T>
void expect_groups_match_items() {
    // (level counts, input run length at entry): advanced's 408-, 816- and
    // 1,632-task slices, the pipelined chunk (6,528) and merged stage
    // (13,056) widths, odd widths, and runs up to and across the staging
    // cap. m = 1 enters in the identity layout (the first level reads the
    // data buffer), m > 1 through the interleaving pre-hook (it reads the
    // scratch buffer); two-level climbs flip the orientation.
    constexpr std::uint64_t cap = MergesortCoalesced<T>::kStageCap;
    const std::vector<std::pair<std::vector<std::uint64_t>, std::uint64_t>> shapes = {
        {{408}, 1},       {{816, 408}, 2},  {{1632, 816}, 1}, {{6528}, 3},
        {{13056, 6528}, 1}, {{3}, 1000},    {{17}, 64},       {{4, 2}, cap / 2},
        {{4}, cap},       {{4}, cap + 1},
    };
    util::ThreadPool pool(2);
    for (const auto& [counts, m] : shapes) {
        const std::uint64_t n = 2 * counts.front() * m;
        for (const Keys keys : {Keys::kUniform, Keys::kSorted, Keys::kReversed, Keys::kFewDistinct}) {
            const std::vector<T> input = level_input<T>(keys, n, m, n + m);
            const ClimbRun<T> items = coalesced_climb(input, counts, 0, nullptr);
            // The reference walk leaves every final run sorted.
            const std::uint64_t run = n / counts.back();
            for (std::uint64_t r = 0; r < n; r += run) {
                ASSERT_TRUE(std::is_sorted(items.out.begin() + static_cast<std::ptrdiff_t>(r),
                                           items.out.begin() + static_cast<std::ptrdiff_t>(r + run)));
            }
            for (std::uint64_t t = 1; t <= sim::kGroupItems; ++t) {
                const ClimbRun<T> groups = coalesced_climb(input, counts, t, t % 2 ? &pool : nullptr);
                const std::string at = "counts[0] " + std::to_string(counts.front()) + " m " +
                                       std::to_string(m) + " keys " +
                                       std::to_string(static_cast<int>(keys)) + " t " +
                                       std::to_string(t);
                ASSERT_EQ(std::memcmp(groups.out.data(), items.out.data(), n * sizeof(T)), 0) << at;
                for (std::size_t i = 0; i < items.ops.size(); ++i) {
                    ASSERT_EQ(groups.ops[i].compute, items.ops[i].compute) << at << " item " << i;
                    ASSERT_EQ(groups.ops[i].mem_coalesced, items.ops[i].mem_coalesced) << at;
                    ASSERT_EQ(groups.ops[i].mem_strided, items.ops[i].mem_strided) << at;
                    ASSERT_TRUE(same_access(groups.logs[i].reads, items.logs[i].reads)) << at;
                    ASSERT_TRUE(same_access(groups.logs[i].writes, items.logs[i].writes)) << at;
                }
            }
        }
    }
}

TEST(CoalescedGroups, Int32GroupsMatchTheItemWalk) { expect_groups_match_items<std::int32_t>(); }
TEST(CoalescedGroups, Int64GroupsMatchTheItemWalk) { expect_groups_match_items<std::int64_t>(); }
TEST(CoalescedGroups, DoubleGroupsMatchTheItemWalk) { expect_groups_match_items<double>(); }

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
