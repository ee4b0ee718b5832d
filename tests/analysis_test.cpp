// Tests of the hpu::analysis correctness passes: the wave race detector
// and the schedule-independence checker — first against hand-built traces,
// then end-to-end through the executors with seeded defective algorithms,
// and finally as a clean sweep over every real algorithm × executor
// combination with validation on.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <numeric>
#include <span>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/closest_pair.hpp"
#include "algos/fft.hpp"
#include "algos/karatsuba.hpp"
#include "algos/quickhull.hpp"
#include "algos/mergesort.hpp"
#include "algos/mergesort_blocked.hpp"
#include "analysis/race.hpp"
#include "analysis/report.hpp"
#include "analysis/schedule.hpp"
#include "analysis/validate.hpp"
#include "core/executors.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace hpu::analysis {
namespace {

// ---------------------------------------------------------------- races

TEST(RaceDetector, FlagsWriteWriteOverlap) {
    std::vector<sim::ItemAccessLog> items(2);
    items[0].writes.push_back({0, 4, 1});  // words 0..3
    items[1].writes.push_back({2, 4, 1});  // words 2..5 — overlap at 2, 3
    AnalysisReport rep;
    detect_races(items, /*wave_width=*/1, "unit/ww", rep);
    ASSERT_EQ(rep.findings.size(), 1u);  // deduped per item pair
    const Finding& f = rep.findings[0];
    EXPECT_EQ(f.kind, FindingKind::kWriteWriteRace);
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_EQ(f.item_a, 0u);
    EXPECT_EQ(f.item_b, 1u);
    EXPECT_EQ(f.wave_b, 1u);  // wave_width 1: item id == wave id
    EXPECT_EQ(f.address, 2u);
    EXPECT_NE(f.message().find("write-write-race"), std::string::npos);
    EXPECT_NE(f.message().find("unit/ww"), std::string::npos);
    EXPECT_FALSE(rep.clean());
}

TEST(RaceDetector, FlagsReadOfAnotherItemsWrite) {
    std::vector<sim::ItemAccessLog> items(2);
    items[0].writes.push_back({0, 4, 1});
    items[1].reads.push_back({3, 2, 1});  // reads 3, 4 — word 3 is written by item 0
    AnalysisReport rep;
    detect_races(items, 2, "unit/rw", rep);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].kind, FindingKind::kReadWriteRace);
    EXPECT_EQ(rep.findings[0].item_a, 0u);  // the writer
    EXPECT_EQ(rep.findings[0].item_b, 1u);  // the reader
    EXPECT_EQ(rep.findings[0].address, 3u);
}

TEST(RaceDetector, CleanForDisjointSlices) {
    std::vector<sim::ItemAccessLog> items(4);
    for (std::uint64_t j = 0; j < 4; ++j) {
        items[j].reads.push_back({j * 8, 8, 1});
        items[j].writes.push_back({j * 8, 8, 1});
    }
    AnalysisReport rep;
    detect_races(items, 2, "unit/clean", rep);
    EXPECT_TRUE(rep.findings.empty());
    EXPECT_EQ(rep.launches_checked, 1u);
    EXPECT_TRUE(rep.clean());
}

TEST(RaceDetector, InterleavedColumnsAreExactlyDisjoint) {
    // The §6.3 coalesced layout: item j owns column j of a runs×m grid.
    // Address arithmetic, not heuristics, must prove these disjoint.
    const std::uint64_t runs = 8, m = 16;
    std::vector<sim::ItemAccessLog> items(runs);
    for (std::uint64_t j = 0; j < runs; ++j) items[j].writes.push_back({j, m, runs});
    AnalysisReport rep;
    detect_races(items, 4, "unit/columns", rep);
    EXPECT_TRUE(rep.findings.empty());
}

TEST(RaceDetector, OverlappingStridedWalksAreFlagged) {
    std::vector<sim::ItemAccessLog> items(2);
    items[0].writes.push_back({0, 4, 2});  // 0, 2, 4, 6
    items[1].writes.push_back({2, 4, 4});  // 2, 6, 10, 14 — collides at 2 and 6
    AnalysisReport rep;
    detect_races(items, 2, "unit/stride", rep);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].kind, FindingKind::kWriteWriteRace);
    EXPECT_EQ(rep.findings[0].address, 2u);
}

TEST(RaceDetector, OversizedTraceIsSkippedNotSilentlyTruncated) {
    std::vector<sim::ItemAccessLog> items(1);
    items[0].writes.push_back({0, 1000, 1});
    AnalysisReport rep;
    RaceOptions opts;
    opts.max_words = 100;
    detect_races(items, 1, "unit/huge", rep, opts);
    EXPECT_TRUE(rep.findings.empty());
    EXPECT_EQ(rep.launches_checked, 0u);
    EXPECT_EQ(rep.launches_skipped, 1u);
}

TEST(RaceDetector, FailOnSkipSurfacesBudgetCappedLaunches) {
    std::vector<sim::ItemAccessLog> items(1);
    items[0].writes.push_back({0, 1000, 1});
    AnalysisReport rep;
    RaceOptions opts;
    opts.max_words = 100;
    opts.fail_on_skip = true;
    detect_races(items, 1, "unit/huge", rep, opts);
    EXPECT_EQ(rep.launches_skipped, 1u);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].kind, FindingKind::kLaunchSkipped);
    EXPECT_EQ(rep.findings[0].severity, Severity::kError);
    EXPECT_FALSE(rep.clean());
}

TEST(RaceDetector, FindingCapCountsSuppressed) {
    // Items 1..19 each collide with item 0 on word 0: 19 distinct pairs,
    // cap is 8, so 11 must be tallied, not dropped.
    std::vector<sim::ItemAccessLog> items(20);
    for (auto& it : items) it.writes.push_back({0, 1, 1});
    AnalysisReport rep;
    detect_races(items, 4, "unit/cap", rep);
    EXPECT_EQ(rep.findings.size(), 8u);
    EXPECT_EQ(rep.findings_suppressed, 11u);
}

// -------------------------------------------------------------- schedule

TEST(ScheduleChecker, FlagsOrderDependentKernel) {
    std::vector<int> data(4, 0);
    const std::vector<int> before = data;
    auto run_item = [&](std::uint64_t j) {
        data[0] = data[0] * 2 + static_cast<int>(j);  // non-commutative fold
    };
    for (std::uint64_t j = 0; j < 4; ++j) run_item(j);
    const std::vector<int> after = data;
    auto f = check_schedule_independence(std::span(data), std::span<const int>(before),
                                         std::span<const int>(after), 4, run_item,
                                         /*seed=*/4, "unit/order");
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, FindingKind::kOrderDependent);
    EXPECT_EQ(data, after);  // canonical result restored despite the finding
}

TEST(ScheduleChecker, CleanForIndependentItemsAndRestores) {
    std::vector<int> data(8, -1);
    const std::vector<int> before = data;
    auto run_item = [&](std::uint64_t j) { data[j] = static_cast<int>(j) * 10; };
    for (std::uint64_t j = 0; j < 8; ++j) run_item(j);
    const std::vector<int> after = data;
    auto f = check_schedule_independence(std::span(data), std::span<const int>(before),
                                         std::span<const int>(after), 8, run_item, 8,
                                         "unit/indep");
    EXPECT_FALSE(f.has_value());
    EXPECT_EQ(data, after);
}

// ------------------------------------------------- seeded defective algos

/// Defect seed 1: every task folds into word 0 — write-write and
/// read-write races across items, and an order-dependent result. The
/// kernel *honestly declares* its accesses, so the race detector must
/// catch it from the trace alone.
class RacyAccumulate final : public core::LevelAlgorithm<int> {
public:
    std::string name() const override { return "racy-accumulate"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }
    model::Recurrence recurrence() const override { return model::sum_recurrence(4.0); }

    void run_task(std::span<int> data, std::uint64_t count, std::uint64_t j,
                  sim::OpCounter& ops) const override {
        const std::uint64_t sz = data.size() / count;
        // Unsigned arithmetic: the fold wraps around instead of overflowing.
        data[0] = static_cast<int>(static_cast<unsigned>(data[0]) * 2u +
                                   static_cast<unsigned>(data[j * sz]));
        ops.charge_compute(2);
        ops.charge_mem(3, sim::Pattern::kStrided);
        ops.log_read(0, 1);
        ops.log_read(j * sz, 1);
        ops.log_write(0, 1);
    }

    // The symbolic declaration is just as honest as the access log, so the
    // static prover must refute it without running anything.
    std::optional<verify::TaskFootprint> footprint(
        const verify::FootprintQuery& query) const override {
        if (query.phase == verify::Phase::kLeaf) return verify::TaskFootprint{};
        verify::SymAccess word0;
        word0.base = verify::Sym::lit(0);
        word0.jcoef = verify::Sym::lit(0);
        verify::SymAccess own;
        own.base = verify::Sym::lit(0);
        own.jcoef = verify::Sym::size();
        verify::TaskFootprint fp;
        fp.reads = {word0, own};
        fp.writes = {word0};
        return fp;
    }
};

TEST(ExecutorValidation, StaticProverRefutesRacyAccumulateBeforeExecution) {
    RacyAccumulate alg;
    const auto srep = hpu::verify::prove_algorithm(alg);
    EXPECT_FALSE(srep.race_free());
    const auto* pp = srep.proof(hpu::verify::Phase::kCpuTask);
    ASSERT_NE(pp, nullptr);
    ASSERT_TRUE(pp->counterexample.has_value());
    // The witness names the fold word the runtime findings below hit.
    EXPECT_EQ(pp->counterexample->word, 0u);
    EXPECT_TRUE(pp->counterexample->write_write);
}

/// Defect seed 2: order-dependent like RacyAccumulate, but the kernel
/// *lies about its footprint* — it declares only its own slice. The race
/// detector cannot see the conflict; the schedule-independence re-run
/// must catch it behaviourally.
class SneakyOrderDependent final : public core::LevelAlgorithm<int> {
public:
    std::string name() const override { return "sneaky-order-dependent"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }
    model::Recurrence recurrence() const override { return model::sum_recurrence(4.0); }

    void run_task(std::span<int> data, std::uint64_t count, std::uint64_t j,
                  sim::OpCounter& ops) const override {
        const std::uint64_t sz = data.size() / count;
        // Unsigned arithmetic: the fold wraps around instead of overflowing.
        data[0] = static_cast<int>(static_cast<unsigned>(data[0]) * 31u +
                                   static_cast<unsigned>(j));
        ops.charge_compute(2);
        ops.charge_mem(3, sim::Pattern::kStrided);
        ops.log_read(j * sz, 1);   // declared: own slice only — a lie
        ops.log_write(j * sz, 1);
    }
};

core::ExecOptions validating() {
    core::ExecOptions opts;
    opts.validate = true;
    // Budget-capped launches must fail loudly in tests, not silently skip.
    opts.race.fail_on_skip = true;
    return opts;
}

TEST(ExecutorValidation, RacyKernelIsFlaggedOnTheGpuPath) {
    std::vector<int> data(64, 1);
    sim::Hpu h(platforms::hpu1());
    RacyAccumulate alg;
    const auto rep = core::run_gpu(h, alg, std::span(data), validating());
    EXPECT_FALSE(rep.analysis.clean());
    EXPECT_TRUE(rep.analysis.has(FindingKind::kWriteWriteRace));
    EXPECT_TRUE(rep.analysis.has(FindingKind::kReadWriteRace));
    // The honest trace also yields an order-dependence hit from the re-run.
    EXPECT_TRUE(rep.analysis.has(FindingKind::kOrderDependent));
}

TEST(ExecutorValidation, RacyKernelIsFlaggedOnTheCpuPath) {
    std::vector<int> data(64, 1);
    sim::Hpu h(platforms::hpu1());
    RacyAccumulate alg;
    const auto rep = core::run_multicore(h.cpu(), alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.has(FindingKind::kWriteWriteRace));
    EXPECT_FALSE(rep.analysis.clean());
}

TEST(ExecutorValidation, UndeclaredOrderDependenceIsCaughtByReExecution) {
    std::vector<int> data(64, 1);
    sim::Hpu h(platforms::hpu1());
    SneakyOrderDependent alg;
    const auto rep = core::run_gpu(h, alg, std::span(data), validating());
    // The declared (false) footprint is race-free...
    EXPECT_FALSE(rep.analysis.has(FindingKind::kWriteWriteRace));
    // ...but the permuted re-run exposes the defect.
    EXPECT_TRUE(rep.analysis.has(FindingKind::kOrderDependent));
    EXPECT_FALSE(rep.analysis.clean());
}

TEST(ExecutorValidation, ValidationOffReportsNothing) {
    std::vector<int> data(64, 1);
    sim::Hpu h(platforms::hpu1());
    RacyAccumulate alg;
    core::ExecOptions opts;
    opts.validate = false;
    const auto rep = core::run_gpu(h, alg, std::span(data), opts);
    EXPECT_TRUE(rep.analysis.findings.empty());
    EXPECT_EQ(rep.analysis.launches_checked, 0u);
}

// ------------------------------------- seeded defective irregular algos

/// Defect seed 3 (irregular): every divide task of the dynamically
/// produced level folds into word 0 while its *declared extent* is a
/// disjoint slice — the extent check passes, so only the exact per-level
/// race detector over the logged accesses can trip. The log is honest;
/// the declaration is not.
class MisdeclaredIrregular final : public core::IrregularLevelAlgorithm<int> {
public:
    std::string name() const override { return "misdeclared-irregular"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }
    model::Recurrence recurrence() const override { return model::sum_recurrence(4.0); }

    core::TaskList root_tasks(std::span<int> data, sim::OpCounter& ops) const override {
        const std::uint64_t n = data.size();
        core::TaskList roots;
        roots.tasks.push_back(core::TaskDesc{0, n / 2, 0});
        roots.tasks.push_back(core::TaskDesc{n / 2, n, 0});
        ops.charge_compute(1);
        return roots;
    }

    void divide_task(std::span<int> data, const core::TaskDesc& t, std::uint64_t /*level*/,
                     core::ChildSlots& /*children*/, sim::OpCounter& ops) const override {
        data[0] += data[t.begin];  // the fold the declaration hides
        ops += task_charge(t, false);
        ops.log_read(t.begin, 1);
        ops.log_write(0, 1);  // outside the declared extent of task 1
    }

    sim::OpCounter task_charge(const core::TaskDesc& /*t*/, bool /*combine*/) const override {
        sim::OpCounter c;
        c.charge_compute(1);
        c.charge_mem(2, sim::Pattern::kStrided);
        return c;
    }

    bool has_combine() const override { return false; }

    std::vector<std::uint64_t> analytic_widths(std::uint64_t /*n*/) const override {
        return {2};
    }
};

/// Defect seed 4 (irregular): a quickhull whose partition loop "runs one
/// past the end" — the off-by-one write lands in the right sibling's first
/// word. Declared extents stay disjoint; the collision only exists in the
/// access logs of the two concurrent divide bodies.
class OverrunQuickhull final : public algos::Quickhull {
public:
    std::string name() const override { return "quickhull-overrun"; }

    void divide_task(std::span<algos::Pt> data, const core::TaskDesc& t, std::uint64_t level,
                     core::ChildSlots& children, sim::OpCounter& ops) const override {
        algos::Quickhull::divide_task(data, t, level, children, ops);
        if (t.size() >= 2 && t.end < data.size() - 1) ops.log_write(t.end, 1);
    }
};

/// Defect seed 5 (irregular): a root frontier whose declared extents
/// overlap by one word — the pairwise-disjointness lint must flag the
/// task list itself, before any race materializes in the logs.
class OverlappingExtentsIrregular final : public core::IrregularLevelAlgorithm<int> {
public:
    std::string name() const override { return "overlapping-extents"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }
    model::Recurrence recurrence() const override { return model::sum_recurrence(4.0); }

    core::TaskList root_tasks(std::span<int> data, sim::OpCounter& ops) const override {
        const std::uint64_t n = data.size();
        core::TaskList roots;
        roots.tasks.push_back(core::TaskDesc{0, n / 2 + 1, 0});  // one word too far
        roots.tasks.push_back(core::TaskDesc{n / 2, n, 0});
        ops.charge_compute(1);
        return roots;
    }

    void divide_task(std::span<int> /*data*/, const core::TaskDesc& t, std::uint64_t /*level*/,
                     core::ChildSlots& /*children*/, sim::OpCounter& ops) const override {
        ops += task_charge(t, false);
        ops.log_read(t.begin, 1);
    }

    sim::OpCounter task_charge(const core::TaskDesc& /*t*/, bool /*combine*/) const override {
        sim::OpCounter c;
        c.charge_compute(1);
        return c;
    }

    bool has_combine() const override { return false; }

    std::vector<std::uint64_t> analytic_widths(std::uint64_t /*n*/) const override {
        return {2};
    }
};

/// Points on a circle: both root regions of quickhull are non-empty and
/// adjacent (no collinear band), so the level-0 divide bodies are exactly
/// the two neighbours the overrun defect needs.
std::vector<algos::Pt> circle_points(std::uint64_t n) {
    std::vector<algos::Pt> pts;
    pts.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const double th = 2.0 * 3.14159265358979323846 * static_cast<double>(i) /
                          static_cast<double>(n);
        pts.push_back({static_cast<std::int64_t>(1000.0 * std::cos(th)),
                       static_cast<std::int64_t>(1000.0 * std::sin(th))});
    }
    return pts;
}

TEST(IrregularValidation, MisdeclaredAccessSetTripsTheExactDetector) {
    sim::Hpu h(platforms::hpu1());
    MisdeclaredIrregular alg;
    std::vector<int> data(64, 1);
    auto rep = core::run_multicore(h.cpu(), alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.has(FindingKind::kWriteWriteRace)) << rep.analysis.summary();
    EXPECT_FALSE(rep.analysis.clean());
    // No extent overlap: the *declaration* was fine, only the accesses lied.
    EXPECT_FALSE(rep.analysis.has(FindingKind::kExtentOverlap));

    data.assign(64, 1);
    rep = core::run_gpu(h, alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.has(FindingKind::kWriteWriteRace)) << rep.analysis.summary();
    EXPECT_FALSE(rep.analysis.clean());
}

TEST(IrregularValidation, OverlappingPartitionWriteSurfacesInQuickhull) {
    sim::Hpu h(platforms::hpu1());
    auto pts = circle_points(32);

    // The honest quickhull on the same input is finding-free...
    algos::Quickhull clean_alg;
    clean_alg.prepare(pts.size());
    auto data = pts;
    auto rep = core::run_multicore(h.cpu(), clean_alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << rep.analysis.summary();
    EXPECT_GT(rep.analysis.launches_checked, 0u);

    // ...and the one-past-the-end partition write is a write-write race
    // against the right sibling's own partition of the same level.
    OverrunQuickhull bad;
    bad.prepare(pts.size());
    data = pts;
    rep = core::run_multicore(h.cpu(), bad, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.has(FindingKind::kWriteWriteRace)) << rep.analysis.summary();
    EXPECT_FALSE(rep.analysis.clean());
}

TEST(IrregularValidation, OverlappingDeclaredExtentsAreFlagged) {
    sim::Hpu h(platforms::hpu1());
    OverlappingExtentsIrregular alg;
    std::vector<int> data(64, 1);
    const auto rep = core::run_gpu(h, alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.has(FindingKind::kExtentOverlap)) << rep.analysis.summary();
    EXPECT_FALSE(rep.analysis.clean());
}

TEST(IrregularValidation, ValidationOffReportsNothingOnTheIrregularPath) {
    sim::Hpu h(platforms::hpu1());
    MisdeclaredIrregular alg;
    std::vector<int> data(64, 1);
    core::ExecOptions opts;
    opts.validate = false;
    const auto rep = core::run_gpu(h, alg, std::span(data), opts);
    EXPECT_TRUE(rep.analysis.findings.empty());
    EXPECT_EQ(rep.analysis.launches_checked, 0u);
}

// --------------------------------------------- clean sweep over real algos

std::vector<std::int32_t> random_input(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
}

/// Runs one algorithm through every executor with validation on and
/// requires a finding-free report each time (the Alg. 3 independence
/// contract, now checked rather than assumed). Every regular run also
/// checks the schedule it executed, run_gpu without link transfers
/// included.
template <typename Alg>
void expect_clean_everywhere(Alg& alg, std::uint64_t n) {
    sim::Hpu h(platforms::hpu1());
    const auto base = random_input(n, n ^ 0xbeef);

    auto data = base;
    auto rep = core::run_sequential(h.cpu(), alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/sequential:\n"
                                               << rep.analysis.summary();
    EXPECT_GT(rep.analysis.launches_checked, 0u);

    data = base;
    rep = core::run_multicore(h.cpu(), alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/multicore:\n"
                                               << rep.analysis.summary();

    data = base;
    rep = core::run_gpu(h, alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/gpu:\n"
                                               << rep.analysis.summary();

    data = base;
    rep = core::run_gpu(h, alg, std::span(data), validating(), false);
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/gpu, no transfers:\n"
                                               << rep.analysis.summary();

    data = base;
    rep = core::run_basic_hybrid(h, alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/basic-hybrid:\n"
                                               << rep.analysis.summary();

    data = base;
    core::AdvancedOptions adv;
    adv.exec = validating();
    rep = core::run_advanced_hybrid(h, alg, std::span(data), 0.25, 3, adv);
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/advanced-hybrid:\n"
                                               << rep.analysis.summary();

    data = base;
    core::PipelinedOptions pip;
    pip.exec = validating();
    rep = core::run_pipelined_hybrid(h, alg, std::span(data), 0.25, 3, pip);
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/pipelined-hybrid:\n"
                                               << rep.analysis.summary();
}

TEST(CleanSweep, MergesortPlain) {
    algos::MergesortPlain<std::int32_t> alg;
    expect_clean_everywhere(alg, 256);
}

TEST(CleanSweep, MergesortCoalesced) {
    algos::MergesortCoalesced<std::int32_t> alg;
    expect_clean_everywhere(alg, 256);
}

TEST(CleanSweep, MergesortBlocked) {
    algos::MergesortBlocked<std::int32_t> alg(16);
    expect_clean_everywhere(alg, 256);
}

TEST(CleanSweep, BinaryReductions) {
    auto sum = algos::make_sum<std::int32_t>();
    expect_clean_everywhere(sum, 256);
    auto mx = algos::make_max<std::int32_t>();
    expect_clean_everywhere(mx, 256);
}

TEST(CleanSweep, Fft) {
    const std::uint64_t n = 64;
    sim::Hpu h(platforms::hpu1());
    algos::DcFft alg;
    util::Rng rng(11);
    std::vector<std::complex<double>> base(n);
    for (auto& c : base) c = {rng.uniform_real(-1.0, 1.0), rng.uniform_real(-1.0, 1.0)};

    auto data = base;
    auto rep = core::run_gpu(h, alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << rep.analysis.summary();

    data = base;
    rep = core::run_multicore(h.cpu(), alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << rep.analysis.summary();
}

/// One irregular algorithm through every executor with validation on: the
/// dynamic task lists must declare disjoint extents and log race-free
/// accesses at every level, same contract as the regular algorithms.
template <typename T, typename Alg>
void expect_irregular_clean_everywhere(Alg& alg, const std::vector<T>& base) {
    sim::Hpu h(platforms::hpu1());
    alg.prepare(base.size());

    auto data = base;
    auto rep = core::run_sequential(h.cpu(), alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/sequential:\n"
                                               << rep.analysis.summary();
    EXPECT_GT(rep.analysis.launches_checked, 0u);

    data = base;
    rep = core::run_multicore(h.cpu(), alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/multicore:\n"
                                               << rep.analysis.summary();

    data = base;
    rep = core::run_gpu(h, alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/gpu:\n"
                                               << rep.analysis.summary();

    data = base;
    rep = core::run_basic_hybrid(h, alg, std::span(data), validating());
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/basic-hybrid:\n"
                                               << rep.analysis.summary();

    data = base;
    core::AdvancedOptions adv;
    adv.exec = validating();
    rep = core::run_advanced_hybrid(h, alg, std::span(data), 0.25, 3, adv);
    EXPECT_TRUE(rep.analysis.findings.empty()) << alg.name() << "/advanced-hybrid:\n"
                                               << rep.analysis.summary();
}

TEST(CleanSweep, IrregularQuickhull) {
    algos::Quickhull alg;
    expect_irregular_clean_everywhere(alg, circle_points(64));
}

TEST(CleanSweep, IrregularClosestPair) {
    algos::ClosestPair alg;
    util::Rng rng(21);
    std::vector<algos::Pt> pts(150);
    for (auto& p : pts) p = {rng.uniform_int(0, 5000), rng.uniform_int(0, 5000)};
    expect_irregular_clean_everywhere(alg, pts);
}

TEST(CleanSweep, IrregularKaratsuba) {
    algos::KaratsubaArray alg;
    util::Rng rng(22);
    std::vector<std::int64_t> coeffs(2 * 70);
    for (auto& c : coeffs) c = rng.uniform_int(-50, 50);
    expect_irregular_clean_everywhere(alg, coeffs);
}

TEST(CleanSweep, ValidationDoesNotPerturbResultsOrTime) {
    // The passes re-execute kernels and snapshot buffers; neither the
    // sorted output nor the virtual clock may change.
    const std::uint64_t n = 512;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto plain = random_input(n, 77);
    auto checked = plain;
    core::ExecOptions off;
    off.validate = false;
    const auto rep_off = core::run_gpu(h, alg, std::span(plain), off);
    const auto rep_on = core::run_gpu(h, alg, std::span(checked), validating());
    EXPECT_EQ(plain, checked);
    EXPECT_TRUE(std::is_sorted(plain.begin(), plain.end()));
    EXPECT_DOUBLE_EQ(rep_off.total, rep_on.total);
    EXPECT_TRUE(rep_on.analysis.findings.empty()) << rep_on.analysis.summary();
}

// ------------------------------------------------------------ env gating

TEST(EnvGate, HpuValidateSeedsTheDefault) {
    ::unsetenv("HPU_VALIDATE");
    EXPECT_FALSE(core::ExecOptions{}.validate);
    ::setenv("HPU_VALIDATE", "1", 1);
    EXPECT_TRUE(core::ExecOptions{}.validate);
    ::setenv("HPU_VALIDATE", "off", 1);
    EXPECT_FALSE(core::ExecOptions{}.validate);
    ::setenv("HPU_VALIDATE", "ON", 1);
    EXPECT_TRUE(core::ExecOptions{}.validate);
    ::unsetenv("HPU_VALIDATE");
}

TEST(Report, SummaryAndMerge) {
    AnalysisReport a;
    Finding f;
    f.kind = FindingKind::kWriteWriteRace;
    f.severity = Severity::kError;
    f.launch = "x/gpu-level[4 tasks]";
    f.detail = "items 0 and 1 both touch word 3";
    a.add(f);
    a.launches_checked = 2;
    AnalysisReport b;
    b.launches_checked = 3;
    b.launches_skipped = 1;
    b.merge(a);
    EXPECT_EQ(b.launches_checked, 5u);
    EXPECT_EQ(b.launches_skipped, 1u);
    ASSERT_EQ(b.findings.size(), 1u);
    EXPECT_NE(b.summary().find("write-write-race"), std::string::npos);
    EXPECT_NE(b.summary().find("x/gpu-level[4 tasks]"), std::string::npos);
}

}  // namespace
}  // namespace hpu::analysis
