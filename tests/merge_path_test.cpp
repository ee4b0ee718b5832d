// The Merge Path kernel layer (DESIGN.md §15), pinned from two sides.
//
// Kernel correctness: merge_path_partition invariants, then a 200-instance
// seeded property sweep comparing merge_segments against std::inplace_merge
// byte for byte — both are stable A-wins-ties merges, so on (key, origin)
// pairs byte equality IS a stability proof. Adversarial shapes ride along:
// all-equal keys, one-empty runs, off-by-one run lengths, already-merged
// inputs, duplicate-heavy keys. Failures print the seed.
//
// Two-clocks invariant: ExecOptions::merge_path may only move wall time.
// Kernel-on and kernel-off runs of the rewired algorithms must produce
// bit-identical ExecReports, trace span trees, outputs, and analysis
// findings across all six executors × functional/analytic. Combined with
// the pooled-vs-inline determinism sweep (kernel-off pooled == inline),
// this pins the whole on/off/pooled/inline square to one behavior.
// Quickhull's blocked partition passes and Karatsuba run that square
// directly (kernel off/on × 0/3 workers), quickhull above the 2^15 gate on
// adversarial geometry: farthest-point ties and duplicates spread across
// blocks, collinear and identical point sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algos/closest_pair.hpp"
#include "algos/geometry.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/mergesort_blocked.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"
#include "util/merge_path.hpp"
#include "util/thread_pool.hpp"

namespace hpu {
namespace {

// ---------------------------------------------------------------------------
// Partition invariants.

TEST(MergePathPartition, CutsTileTheOutput) {
    std::mt19937_64 rng(7);
    for (int tc = 0; tc < 50; ++tc) {
        const std::size_t na = rng() % 2000;
        const std::size_t nb = rng() % 2000;
        const std::size_t parts = 1 + rng() % 9;
        std::vector<int> a(na), b(nb);
        for (auto& v : a) v = static_cast<int>(rng() % 100);
        for (auto& v : b) v = static_cast<int>(rng() % 100);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        SCOPED_TRACE(::testing::Message()
                     << "case " << tc << " na=" << na << " nb=" << nb << " parts=" << parts);
        const auto cuts =
            util::merge_path_partition(a.data(), na, b.data(), nb, parts, std::less<int>{});
        ASSERT_EQ(cuts.size(), parts + 1);
        EXPECT_EQ(cuts.front().ai, 0u);
        EXPECT_EQ(cuts.front().bi, 0u);
        EXPECT_EQ(cuts.back().ai, na);
        EXPECT_EQ(cuts.back().bi, nb);
        for (std::size_t s = 0; s <= parts; ++s) {
            const std::size_t diag = (na + nb) * s / parts;
            EXPECT_EQ(cuts[s].ai + cuts[s].bi, diag);
            if (s > 0) {
                EXPECT_GE(cuts[s].ai, cuts[s - 1].ai);  // cuts are monotone
                EXPECT_GE(cuts[s].bi, cuts[s - 1].bi);
            }
            // Stable-cut property (A wins ties): everything kept on the A
            // side is <= everything remaining on the B side, and everything
            // kept on the B side is strictly < everything remaining on A.
            const std::size_t ai = cuts[s].ai, bi = cuts[s].bi;
            if (ai > 0 && bi < nb) {
                EXPECT_LE(a[ai - 1], b[bi]);
            }
            if (bi > 0 && ai < na) {
                EXPECT_LT(b[bi - 1], a[ai]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property sweep vs std::inplace_merge.

/// Key with provenance: byte equality after two stable merges proves the
/// kernel preserves relative order of equal keys.
struct Tagged {
    std::int32_t key;
    std::int32_t origin;
    bool operator==(const Tagged& o) const { return key == o.key && origin == o.origin; }
};

struct Shape {
    const char* name;
    std::size_t na, nb;
    int key_range;  // 1 = all-equal keys
    bool presorted; // A entirely <= B (bulk-copy tails dominate)
};

std::vector<Shape> shapes() {
    return {
        {"random", 4096, 4096, 1000, false},
        {"all-equal", 3000, 3000, 1, false},
        {"left-empty", 0, 2048, 100, false},
        {"right-empty", 2048, 0, 100, false},
        {"off-by-one", 2049, 2048, 50, false},
        {"already-merged", 4096, 4096, 1000, true},
        {"duplicate-heavy", 4096, 4096, 8, false},
        {"tiny", 1, 2, 5, false},
    };
}

TEST(MergePathProperty, MatchesInplaceMerge200Seeds) {
    util::ThreadPool pool(3);
    const auto less = [](const Tagged& x, const Tagged& y) { return x.key < y.key; };
    const auto sh = shapes();
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        std::mt19937_64 rng(seed);
        const Shape& s = sh[seed % sh.size()];
        // Jitter the lengths except for the shapes whose exact lengths ARE
        // the adversarial property.
        const std::size_t na = s.na > 8 ? s.na - rng() % 7 : s.na;
        const std::size_t nb = s.nb > 8 ? s.nb - rng() % 7 : s.nb;
        const std::size_t parts = 1 + seed % 8;
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " shape=" << s.name
                                          << " na=" << na << " nb=" << nb
                                          << " parts=" << parts);
        std::vector<Tagged> a(na), b(nb);
        for (std::size_t i = 0; i < na; ++i) {
            a[i] = {static_cast<std::int32_t>(rng() % s.key_range), static_cast<std::int32_t>(i)};
        }
        for (std::size_t i = 0; i < nb; ++i) {
            b[i] = {static_cast<std::int32_t>(rng() % s.key_range + (s.presorted ? s.key_range : 0)),
                    static_cast<std::int32_t>(na + i)};
        }
        std::stable_sort(a.begin(), a.end(), less);
        std::stable_sort(b.begin(), b.end(), less);

        // Reference: std::inplace_merge is stable with the same tie-break.
        std::vector<Tagged> ref(a);
        ref.insert(ref.end(), b.begin(), b.end());
        std::inplace_merge(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(na),
                           ref.end(), less);

        std::vector<Tagged> out(na + nb);
        util::merge_segments(&pool, a.data(), na, b.data(), nb, out.data(), less, parts);
        ASSERT_EQ(out.size(), ref.size());
        EXPECT_TRUE(std::memcmp(out.data(), ref.data(), out.size() * sizeof(Tagged)) == 0)
            << "merge_segments diverged from std::inplace_merge (seed " << seed << ")";
    }
}

TEST(MergePathProperty, StridedMatchesContiguous) {
    util::ThreadPool pool(3);
    std::mt19937_64 rng(42);
    for (int tc = 0; tc < 30; ++tc) {
        const std::size_t m = 1 + rng() % 3000;
        const std::size_t stride = 2;  // two interleaved runs, §6.3 layout
        SCOPED_TRACE(::testing::Message() << "case " << tc << " m=" << m);
        std::vector<int> a(m), b(m);
        for (auto& v : a) v = static_cast<int>(rng() % 50);
        for (auto& v : b) v = static_cast<int>(rng() % 50);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        // Interleave: element k of run j at k·2 + j.
        std::vector<int> inter(2 * m), outbuf(2 * m, -1);
        for (std::size_t k = 0; k < m; ++k) {
            inter[k * 2] = a[k];
            inter[k * 2 + 1] = b[k];
        }
        std::vector<int> ref(2 * m);
        util::merge_serial(a.data(), m, b.data(), m, ref.data(), std::less<int>{});
        const std::size_t parts = 1 + static_cast<std::size_t>(tc) % 5;
        util::merge_segments_strided(&pool, util::Strided<const int>{inter.data(), stride}, m,
                                     util::Strided<const int>{inter.data() + 1, stride}, m,
                                     util::Strided<int>{outbuf.data(), 1}, std::less<int>{},
                                     parts);
        EXPECT_EQ(outbuf, ref);
    }
}

// ---------------------------------------------------------------------------
// merge_parts gating.

TEST(MergeParts, Gating) {
    EXPECT_EQ(util::merge_parts(1 << 20, nullptr), 1u);
    util::ThreadPool none(0);
    EXPECT_EQ(util::merge_parts(1 << 20, &none), 1u);
    util::ThreadPool pool(3);
    // Below the parallel threshold: serial.
    EXPECT_EQ(util::merge_parts(util::kMinParallelMerge - 1, &pool), 1u);
    // Large enough: one segment per participant (workers + caller).
    EXPECT_EQ(util::merge_parts(1 << 20, &pool), 4u);
    // Mid-size: floored so segments keep >= kMinMergeSegment outputs.
    EXPECT_EQ(util::merge_parts(util::kMinParallelMerge, &pool),
              util::kMinParallelMerge / util::kMinMergeSegment);
    // Inside a batch the pool is off limits — task bodies must go serial.
    std::vector<std::size_t> seen(2, 99);
    pool.parallel_for(2, [&](std::size_t i) { seen[i] = util::merge_parts(1 << 20, &pool); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 1}));
    EXPECT_FALSE(pool.in_batch());
}

// ---------------------------------------------------------------------------
// Two-clocks parity: kernel-on vs kernel-off across the six executors.

sim::HpuParams parity_hw() {
    sim::HpuParams hw = platforms::hpu1();
    hw.name = "merge-path-parity";
    hw.cpu.p = 4;
    hw.cpu.contention = 0.0;
    hw.gpu.g = 64;
    return hw;
}

template <typename T>
struct Artifacts {
    core::ExecReport rep;
    std::vector<trace::Span> spans;
    std::vector<T> out;
    std::vector<std::string> findings;
};

constexpr const char* kExecutors[] = {"sequential", "multicore", "gpu",
                                      "basic",      "advanced",  "pipelined"};

template <typename T>
Artifacts<T> run_one(util::ThreadPool* pool, int executor, const core::LevelAlgorithm<T>& alg,
                     const std::vector<T>& input, bool functional, bool merge_path) {
    sim::Hpu h(parity_hw(), pool);
    trace::TraceSession ts;
    core::ExecOptions opts;
    opts.functional = functional;
    opts.validate = functional;  // findings are part of the invariant
    opts.trace = &ts;
    opts.merge_path = merge_path;

    Artifacts<T> art;
    art.out = input;
    std::span<T> data(art.out);
    switch (executor) {
        case 0: art.rep = core::run_sequential(h.cpu(), alg, data, opts); break;
        case 1: art.rep = core::run_multicore(h.cpu(), alg, data, opts); break;
        case 2: art.rep = core::run_gpu(h, alg, data, opts); break;
        case 3: art.rep = core::run_basic_hybrid(h, alg, data, opts); break;
        case 4: {
            core::AdvancedOptions adv;
            adv.exec = opts;
            art.rep = core::run_advanced_hybrid(h, alg, data, 0.3, 2, adv);
            break;
        }
        default: {
            core::PipelinedOptions pip;
            pip.chunks = 4;
            pip.exec = opts;
            art.rep = core::run_pipelined_hybrid(h, alg, data, 0.3, 2, pip);
            break;
        }
    }
    art.spans = ts.spans();
    for (const auto& f : art.rep.analysis.findings) art.findings.push_back(f.message());
    return art;
}

template <typename T>
void expect_identical(const Artifacts<T>& a, const Artifacts<T>& b) {
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
    EXPECT_TRUE(a.out.size() == b.out.size() &&
                std::memcmp(a.out.data(), b.out.data(), a.out.size() * sizeof(T)) == 0)
        << "output bytes differ";
    EXPECT_EQ(a.findings, b.findings);
    EXPECT_EQ(a.rep.analysis.launches_checked, b.rep.analysis.launches_checked);
    EXPECT_EQ(a.rep.analysis.launches_skipped, b.rep.analysis.launches_skipped);
    EXPECT_EQ(a.rep.analysis.findings_suppressed, b.rep.analysis.findings_suppressed);
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
        EXPECT_EQ(sa.attrs.max_ops, sb.attrs.max_ops);
        EXPECT_EQ(sa.attrs.work, sb.attrs.work);
        EXPECT_EQ(sa.attrs.bytes, sb.attrs.bytes);
        EXPECT_EQ(sa.attrs.coalesced_transactions, sb.attrs.coalesced_transactions);
        EXPECT_EQ(sa.attrs.strided_transactions, sb.attrs.strided_transactions);
        EXPECT_EQ(sa.attrs.extent_words, sb.attrs.extent_words);
        EXPECT_EQ(sa.attrs.imbalance, sb.attrs.imbalance);
    }
}

TEST(MergePathParity, KernelOnOffAllExecutorsAndModes) {
    // n large enough that the top merges clear kMinParallelMerge, so the
    // kernel path genuinely executes in the pooled kernel-on runs.
    const std::uint64_t n = std::uint64_t{1} << 16;
    std::vector<std::int32_t> input(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& e : input) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = static_cast<std::int32_t>(x % 10000);
    }
    util::ThreadPool pool(3);
    algos::MergesortPlain<std::int32_t> plain;
    algos::MergesortCoalesced<std::int32_t> coalesced;
    const core::LevelAlgorithm<std::int32_t>* algs[] = {&plain, &coalesced};
    for (const auto* alg : algs) {
        for (const bool functional : {true, false}) {
            for (int e = 0; e < 6; ++e) {
                SCOPED_TRACE(::testing::Message()
                             << "alg=" << alg->name() << " executor=" << kExecutors[e]
                             << " functional=" << functional);
                const auto off = run_one(&pool, e, *alg, input, functional, false);
                const auto on = run_one(&pool, e, *alg, input, functional, true);
                expect_identical(off, on);
                if (functional) {
                    std::vector<std::int32_t> want(input);
                    std::sort(want.begin(), want.end());
                    EXPECT_EQ(on.out, want);
                }
            }
        }
    }
}

TEST(MergePathParity, ClosestPairKernelOnOff) {
    const std::uint64_t n = (std::uint64_t{1} << 16) + 37;  // uneven tree
    std::vector<algos::Pt> pts(n);
    std::mt19937_64 rng(11);
    for (auto& p : pts) {
        p.x = static_cast<std::int64_t>(rng() % 1000000);
        p.y = static_cast<std::int64_t>(rng() % 1000000);
    }
    util::ThreadPool pool(3);
    sim::Hpu h(parity_hw(), &pool);
    algos::ClosestPair cp;
    for (const bool functional : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "functional=" << functional);
        core::ExecOptions opts;
        opts.functional = functional;
        std::vector<algos::Pt> off_data(pts), on_data(pts);
        opts.merge_path = false;
        const auto off = core::run_multicore(h.cpu(), cp, std::span(off_data), opts);
        const std::uint64_t off_best = cp.best_dist2();
        opts.merge_path = true;
        const auto on = core::run_multicore(h.cpu(), cp, std::span(on_data), opts);
        EXPECT_EQ(off.total, on.total);
        EXPECT_EQ(off.cpu_busy, on.cpu_busy);
        EXPECT_EQ(off.levels_cpu, on.levels_cpu);
        EXPECT_EQ(off.tasks_spawned, on.tasks_spawned);
        if (functional) {
            EXPECT_EQ(off_best, cp.best_dist2());
            EXPECT_TRUE(std::memcmp(off_data.data(), on_data.data(),
                                    n * sizeof(algos::Pt)) == 0);
        }
    }
}

/// The on/off × pooled/inline square for one irregular algorithm: every
/// executor, functional, with the kernel off and on at 0 and 3 workers —
/// each run against the kernel-off inline one. Returns that reference
/// run's outputs per executor.
template <typename T>
std::vector<std::vector<T>> sweep_on_off(const core::LevelAlgorithm<T>& alg,
                                         const std::vector<T>& input) {
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(3);
    std::vector<std::vector<T>> outs;
    for (int e = 0; e < 6; ++e) {
        SCOPED_TRACE(::testing::Message() << "executor=" << kExecutors[e]);
        const auto ref = run_one(&inline_pool, e, alg, input, true, false);
        expect_identical(ref, run_one(&inline_pool, e, alg, input, true, true));
        expect_identical(ref, run_one(&pool, e, alg, input, true, false));
        expect_identical(ref, run_one(&pool, e, alg, input, true, true));
        outs.push_back(ref.out);
    }
    return outs;
}

/// Strict hull vertices (collinear boundary points excluded), sorted:
/// Andrew's monotone chain.
std::vector<algos::Pt> reference_hull(std::vector<algos::Pt> pts) {
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    if (pts.size() < 3) return pts;
    std::vector<algos::Pt> h(2 * pts.size());
    std::size_t k = 0;
    for (const algos::Pt& p : pts) {
        while (k >= 2 && algos::cross(h[k - 2], h[k - 1], p) <= 0) --k;
        h[k++] = p;
    }
    for (std::size_t i = pts.size() - 1, t = k + 1; i-- > 0;) {
        while (k >= t && algos::cross(h[k - 2], h[k - 1], pts[i]) <= 0) --k;
        h[k++] = pts[i];
    }
    h.resize(k - 1);
    std::sort(h.begin(), h.end());
    return h;
}

TEST(MergePathParity, QuickhullKernelOnOff) {
    // The first four inputs are large enough that the root pass and the
    // level-0 divides (about n/2 points each) clear the 2^15 gate and run
    // in blocks in the pooled kernel-on runs; on the degenerate ones only
    // the root pass is wide.
    constexpr std::uint64_t n = (std::uint64_t{1} << 17) + 11;
    constexpr std::uint64_t n_flat = (std::uint64_t{1} << 16) + 11;
    std::mt19937_64 rng(23);
    const auto coord = [&](std::int64_t r) {
        return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(2 * r + 1)) - r;
    };
    struct Input {
        const char* name;
        std::vector<algos::Pt> pts;
    };
    std::vector<Input> inputs;
    {
        std::vector<algos::Pt> pts(n);
        for (auto& p : pts) p = {coord(1000000), coord(1000000)};
        inputs.push_back({"uniform square", std::move(pts)});
    }
    {
        std::vector<algos::Pt> pts(n);
        for (auto& p : pts) {
            const double th = static_cast<double>(rng() % 1000000) * 6.283185307179586e-6;
            p = {std::llround(1e9 * std::cos(th)), std::llround(1e9 * std::sin(th))};
        }
        inputs.push_back({"circle", std::move(pts)});
    }
    {
        // Anchors (-2e6, 0) and (2e6, 0); 512 distinct points on y = 10^6
        // tie at the farthest distance from the upper root edge, at random
        // indices, so every block holds some of them.
        std::vector<algos::Pt> pts(n);
        for (auto& p : pts) p = {coord(1000000), coord(999999)};
        pts[0] = {-2000000, 0};
        pts[1] = {2000000, 0};
        for (int k = 0; k < 512; ++k) pts[2 + rng() % (n - 2)] = {coord(1000000), 1000000};
        inputs.push_back({"tied band", std::move(pts)});
    }
    {
        // The farthest point, duplicated into every block with interior
        // points between the copies: which copy is re-inserted shows in
        // the dropped middle.
        std::vector<algos::Pt> pts(n);
        for (auto& p : pts) p = {coord(1000000), coord(1000000)};
        for (std::uint64_t k = 0; k < 64; ++k) pts[k * (n / 64) + rng() % (n / 64)] = {0, 3000000};
        inputs.push_back({"duplicated farthest", std::move(pts)});
    }
    {
        std::vector<algos::Pt> pts(n_flat);
        for (auto& p : pts) {
            const std::int64_t x = coord(1000000);
            p = {x, 3 * x - 7};
        }
        inputs.push_back({"collinear", std::move(pts)});
    }
    inputs.push_back({"identical", std::vector<algos::Pt>(n_flat, algos::Pt{5, -5})});
    inputs.push_back({"n = 2", {{3, 4}, {-1, 2}}});
    inputs.push_back({"n = 3", {{0, 0}, {4, 0}, {2, 3}}});

    algos::Quickhull qh;
    for (const Input& in : inputs) {
        SCOPED_TRACE(::testing::Message() << "input=" << in.name);
        const auto outs = sweep_on_off(qh, in.pts);
        const std::vector<algos::Pt> want = reference_hull(in.pts);
        ASSERT_EQ(qh.hull_count(), want.size());
        for (const auto& out : outs) {
            EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin()));
        }
    }
}

TEST(MergePathParity, KaratsubaKernelOnOff) {
    // Two uneven operands (odd splits at several depths).
    std::vector<std::int64_t> coeffs(2 * 1203);
    std::mt19937_64 rng(29);
    for (auto& c : coeffs) c = static_cast<std::int64_t>(rng() % 2001) - 1000;
    algos::KaratsubaArray ka;
    const auto outs = sweep_on_off(ka, coeffs);
    // Spot-check the product against the schoolbook sum at a few degrees.
    const std::size_t m = coeffs.size() / 2;
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, m - 1, m, 2 * m - 2}) {
        std::int64_t want = 0;
        for (std::size_t i = 0; i < m; ++i) {
            if (k >= i && k - i < m) want += coeffs[i] * coeffs[m + k - i];
        }
        for (const auto& out : outs) EXPECT_EQ(out[k], want) << "degree " << k;
    }
}

TEST(MergePathParity, ParallelMergeGpuKernelOnOff) {
    const std::uint64_t n = std::uint64_t{1} << 17;
    std::vector<std::int32_t> input(n);
    std::mt19937_64 rng(5);
    for (auto& e : input) e = static_cast<std::int32_t>(rng() % 1000);
    util::ThreadPool pool(3);
    sim::Hpu h(parity_hw(), &pool);
    core::ExecOptions opts;
    opts.functional = true;
    algos::MergesortPlain<std::int32_t> alg;
    std::vector<std::int32_t> off_data(input), on_data(input);
    opts.merge_path = false;
    const auto off = core::run_gpu(h, alg, std::span(off_data), opts, true, 17);
    opts.merge_path = true;
    const auto on = core::run_gpu(h, alg, std::span(on_data), opts, true, 17);
    EXPECT_EQ(off.gpu_busy, on.gpu_busy);
    EXPECT_EQ(off.transfer, on.transfer);
    EXPECT_EQ(off_data, on_data);
    std::vector<std::int32_t> want(input);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(on_data, want);
}

}  // namespace
}  // namespace hpu
