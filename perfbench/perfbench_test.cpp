// Tests of the benchmark's own rules: the tail percentile choice, the
// geometric mean, the failure ratio, the span self times, and each
// reference rejecting a deliberately corrupted output.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "algos/closest_pair.hpp"
#include "algos/karatsuba.hpp"
#include "algos/quickhull.hpp"
#include "core/executors.hpp"
#include "references.hpp"
#include "sim/cpu_unit.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace pb = perfbench;
using pb::Pt;

TEST(Stats, TailQuantileLeavesTenSamplesBeyond) {
    for (std::size_t n = 20; n <= 1000; ++n) {
        const double q = pb::tail_quantile(n);
        EXPECT_GE(pb::samples_beyond(n, q), pb::kTailSamples) << "n=" << n;
        EXPECT_LE(q, 0.9);
    }
    // At 100 samples the p90 itself qualifies, and one more sample beyond
    // would not.
    EXPECT_DOUBLE_EQ(pb::tail_quantile(100), 0.9);
    EXPECT_EQ(pb::samples_beyond(100, 0.9), 10u);
    EXPECT_LT(pb::samples_beyond(100, 0.91), 10u);
    // Between 20 and 100 samples the highest qualifying quantile is chosen.
    EXPECT_DOUBLE_EQ(pb::tail_quantile(50), 0.8);
    EXPECT_LT(pb::samples_beyond(50, 0.81), 10u);
    // Below 20 samples the choice floors at the median.
    EXPECT_DOUBLE_EQ(pb::tail_quantile(13), 0.5);
    EXPECT_DOUBLE_EQ(pb::tail_quantile(0), 0.5);
}

TEST(Stats, QuantileInterpolatesBetweenRanks) {
    const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(pb::quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(pb::quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(pb::median(v), 2.5);
    EXPECT_DOUBLE_EQ(pb::quantile(v, 0.9), 3.7);
    EXPECT_THROW(pb::quantile({}, 0.5), std::invalid_argument);
    EXPECT_DOUBLE_EQ(pb::rank_quantile(v, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(pb::rank_quantile(v, 0.75), 3.0);
    EXPECT_DOUBLE_EQ(pb::rank_quantile(v, 0.76), 4.0);
    EXPECT_THROW(pb::rank_quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, GeometricMean) {
    EXPECT_DOUBLE_EQ(pb::geomean({4.0}), 4.0);
    EXPECT_NEAR(pb::geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(pb::geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
    EXPECT_THROW(pb::geomean({}), std::invalid_argument);
    EXPECT_THROW(pb::geomean({1.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(pb::geomean({1.0, -2.0}), std::invalid_argument);
}

TEST(Stats, FailedRatio) {
    EXPECT_DOUBLE_EQ(pb::failed_ratio(0, 10), 0.0);
    EXPECT_DOUBLE_EQ(pb::failed_ratio(1, 4), 0.25);
    EXPECT_DOUBLE_EQ(pb::failed_ratio(3, 3), 1.0);
    EXPECT_DOUBLE_EQ(pb::failed_ratio(0, 0), 1.0);  // nothing attempted never passes
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
    pb::Tracer t;
    {
        pb::Scope job(&t, "job", 0);
        { pb::Scope a(&t, "core.sequential", 0); }
        { pb::Scope b(&t, "algos.check", 0); }
    }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, 0);
    const std::vector<std::uint64_t> self = t.self_times();
    EXPECT_EQ(self[0], t.spans()[0].duration_ns() - t.spans()[1].duration_ns() -
                           t.spans()[2].duration_ns());
    EXPECT_EQ(self[1], t.spans()[1].duration_ns());
}

TEST(Spans, NullTracerRecordsNothing) {
    pb::Scope s(nullptr, "job");
    EXPECT_EQ(s.id(), -1);
}

TEST(References, SortRejectsCorruptedOutput) {
    hpu::util::Rng rng(7);
    for (const auto cls : {pb::KeyClass::kUniform, pb::KeyClass::kNearlySorted,
                           pb::KeyClass::kFewDistinct}) {
        std::vector<std::int32_t> in = pb::make_keys(rng, 4096, cls);
        std::vector<std::int32_t> ref = in;
        std::sort(ref.begin(), ref.end());
        std::vector<std::int32_t> out = ref;
        EXPECT_TRUE(pb::check_sorted(out, ref));
        out[100] += 1;
        EXPECT_FALSE(pb::check_sorted(out, ref));
        EXPECT_FALSE(pb::check_sorted(std::span(ref).first(4095), ref));
    }
}

/// Runs the sequential executor on one irregular input.
template <typename T>
void run_seq(const hpu::core::LevelAlgorithm<T>& alg, std::vector<T>& data) {
    hpu::sim::CpuUnit cpu(hpu::sim::CpuParams{});
    hpu::core::ExecOptions o;
    o.validate = false;
    o.verify = false;
    o.observe = false;
    hpu::core::run_sequential(cpu, alg, std::span<T>(data), o);
}

TEST(References, HullMatchesQuickhullAndRejectsCorruption) {
    hpu::util::Rng rng(11);
    for (const bool circle : {false, true}) {
        const std::vector<Pt> pts =
            circle ? pb::circle_points(rng, 2048, 1e6) : pb::square_points(rng, 2048, 1 << 20);
        const pb::HullRef ref = pb::monotone_chain_hull(pts);
        if (circle) {
            EXPECT_GT(ref.sorted.size(), pts.size() / 2);  // most points are hull vertices
        }
        hpu::algos::Quickhull qh;
        std::vector<Pt> out = pts;
        run_seq(qh, out);
        EXPECT_TRUE(pb::check_hull(out, qh.hull_count(), ref));
        EXPECT_FALSE(pb::check_hull(out, qh.hull_count() - 1, ref));  // a vertex dropped
        std::vector<Pt> moved = out;
        moved[0].x -= 1;  // the leftmost vertex moved outside the hull
        EXPECT_FALSE(pb::check_hull(moved, qh.hull_count(), ref));
    }
}

TEST(References, HullAcceptsBoundaryPointsOnly) {
    // A square with one point on its bottom edge and one inside.
    const std::vector<Pt> pts{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 0}, {2, 2}};
    const pb::HullRef ref = pb::monotone_chain_hull(pts);
    ASSERT_EQ(ref.sorted.size(), 4u);
    const std::vector<Pt> strict{{0, 0}, {0, 4}, {4, 0}, {4, 4}};
    const std::vector<Pt> with_edge_point{{0, 0}, {0, 4}, {2, 0}, {4, 0}, {4, 4}};
    const std::vector<Pt> with_interior{{0, 0}, {0, 4}, {2, 2}, {4, 0}, {4, 4}};
    const std::vector<Pt> unsorted{{0, 4}, {0, 0}, {4, 0}, {4, 4}};
    EXPECT_TRUE(pb::check_hull(strict, 4, ref));
    EXPECT_TRUE(pb::check_hull(with_edge_point, 5, ref));
    EXPECT_FALSE(pb::check_hull(with_interior, 5, ref));
    EXPECT_FALSE(pb::check_hull(unsorted, 4, ref));
    EXPECT_FALSE(pb::check_hull(strict, 5, ref));  // count beyond the output
}

TEST(References, ClosestPairMatchesAndRejectsCorruption) {
    hpu::util::Rng rng(13);
    const std::vector<Pt> pts = pb::square_points(rng, 3000, 1 << 20);
    std::uint64_t brute = ~std::uint64_t{0};
    for (std::size_t i = 0; i < pts.size(); ++i) {
        for (std::size_t j = i + 1; j < pts.size(); ++j) {
            brute = std::min(brute, hpu::algos::dist2(pts[i], pts[j]));
        }
    }
    const std::uint64_t ref = pb::closest_pair_sweep(pts);
    EXPECT_EQ(ref, brute);
    hpu::algos::ClosestPair cp;
    std::vector<Pt> out = pts;
    run_seq(cp, out);
    EXPECT_TRUE(pb::check_closest(out, ref));
    out[0].x += 1;
    EXPECT_FALSE(pb::check_closest(out, ref));
}

TEST(References, ProductMatchesKaratsubaAndRejectsCorruption) {
    hpu::util::Rng rng(17);
    constexpr std::size_t n = 300;
    std::vector<std::int64_t> in(2 * n);
    for (auto& c : in) c = rng.uniform_int(-1000, 1000);
    const std::span<const std::int64_t> all(in);
    const std::vector<std::int64_t> ref = pb::schoolbook_product(all.first(n), all.subspan(n));
    hpu::algos::KaratsubaArray ka;
    std::vector<std::int64_t> out = in;
    run_seq(ka, out);
    EXPECT_TRUE(pb::check_product(out, ref));
    out[5] -= 1;
    EXPECT_FALSE(pb::check_product(out, ref));
    out[5] += 1;
    out.back() = 1;  // the pad must stay zero
    EXPECT_FALSE(pb::check_product(out, ref));
}
