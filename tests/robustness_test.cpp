// Failure-injection and misuse tests: the library must reject unsupported
// shapes loudly (HpuError with a useful message) and survive faulty task
// bodies without corrupting its own state.
#include <gtest/gtest.h>

#include <complex>

#include "algos/binary_reduce.hpp"
#include "algos/fft.hpp"
#include "algos/mergesort.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "model/advanced.hpp"
#include "platforms/platforms.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

/// A LevelAlgorithm with a != b: the array executors must refuse it
/// (contiguous level tiling is impossible), while the model happily prices
/// it (the §5 analysis is general).
class ThreeWay final : public LevelAlgorithm<std::int32_t> {
public:
    std::string name() const override { return "three-way"; }
    std::uint64_t a() const override { return 3; }
    std::uint64_t b() const override { return 2; }
    model::Recurrence recurrence() const override {
        model::Recurrence r;
        r.a = 3.0;
        r.b = 2.0;
        return r;
    }
    void run_task(std::span<std::int32_t>, std::uint64_t, std::uint64_t,
                  sim::OpCounter& ops) const override {
        ops.charge_compute(1);
    }
};

TEST(Robustness, ExecutorsRejectUnequalAB) {
    sim::Hpu h(platforms::hpu1());
    ThreeWay alg;
    std::vector<std::int32_t> d(64);
    EXPECT_THROW(run_sequential(h.cpu(), alg, std::span(d)), util::HpuError);
    EXPECT_THROW(run_gpu(h, alg, std::span(d)), util::HpuError);
    EXPECT_THROW(run_basic_hybrid(h, alg, std::span(d)), util::HpuError);
    EXPECT_THROW(run_advanced_hybrid(h, alg, std::span(d), 0.2, 3), util::HpuError);
}

TEST(Robustness, ModelAcceptsUnequalAB) {
    // The analysis itself is shape-general: a=3, b=2 prices fine.
    model::AdvancedModel m(platforms::hpu1(), ThreeWay().recurrence(), 1 << 16);
    const auto opt = m.optimize();
    EXPECT_GT(opt.speedup, 1.0);
}

/// A task body that throws on one specific task: the error must surface to
/// the caller from every executor.
class FaultyMerge final : public algos::MergesortPlain<std::int32_t> {
public:
    void run_task(std::span<std::int32_t> data, std::uint64_t count, std::uint64_t j,
                  sim::OpCounter& ops) const override {
        if (count == 4 && j == 2) throw std::runtime_error("injected task fault");
        algos::MergesortPlain<std::int32_t>::run_task(data, count, j, ops);
    }
};

TEST(Robustness, TaskFaultsPropagateFromEveryExecutor) {
    sim::Hpu h(platforms::hpu1());
    FaultyMerge alg;
    util::Rng rng(1);
    auto base = rng.int_vector(64, 0, 128);
    auto d = base;
    EXPECT_THROW(run_sequential(h.cpu(), alg, std::span(d)), std::runtime_error);
    d = base;
    EXPECT_THROW(run_multicore(h.cpu(), alg, std::span(d)), std::runtime_error);
    d = base;
    EXPECT_THROW(run_gpu(h, alg, std::span(d)), std::runtime_error);
    d = base;
    EXPECT_THROW(run_advanced_hybrid(h, alg, std::span(d), 0.25, 3), std::runtime_error);
}

TEST(Robustness, ErrorMessagesNameTheCondition) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> alg;
    std::vector<std::int32_t> odd(100);
    try {
        run_sequential(h.cpu(), alg, std::span(odd));
        FAIL() << "expected HpuError";
    } catch (const util::HpuError& e) {
        EXPECT_NE(std::string(e.what()).find("admissible"), std::string::npos);
    }
}

TEST(Robustness, HpuSurvivesFailedRun) {
    // A faulty run must not poison the machine object for later runs.
    sim::Hpu h(platforms::hpu1());
    FaultyMerge faulty;
    util::Rng rng(2);
    auto d = rng.int_vector(64, 0, 128);
    EXPECT_THROW(run_gpu(h, faulty, std::span(d)), std::runtime_error);
    algos::MergesortCoalesced<std::int32_t> good;
    auto e = rng.int_vector(64, 0, 128);
    auto expect = e;
    std::sort(expect.begin(), expect.end());
    run_basic_hybrid(h, good, std::span(e));
    EXPECT_EQ(e, expect);
}

TEST(Robustness, ElementwiseSwitchNeedsAnElementwiseForm) {
    // Only the mergesorts have an element-wise level; run_gpu must refuse a
    // switch above 0 on any other algorithm, regular or dynamic.
    sim::Hpu h(platforms::hpu1());
    const auto sum = algos::make_sum<std::int32_t>();
    std::vector<std::int32_t> ints(64, 1);
    EXPECT_THROW(run_gpu(h, sum, std::span(ints), {}, true, 1), util::HpuError);
    algos::DcFft fft;
    std::vector<std::complex<double>> signal(64, {1.0, 0.0});
    EXPECT_THROW(run_gpu(h, fft, std::span(signal), {}, true, 6), util::HpuError);
    algos::Quickhull qh;
    std::vector<algos::Pt> pts = {{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 1}, {1, 3}};
    EXPECT_THROW(run_gpu(h, qh, std::span(pts), {}, true, 1), util::HpuError);
    // Switch 0 is the per-task schedule every algorithm has.
    EXPECT_NO_THROW(run_gpu(h, sum, std::span(ints), {}, true, 0));
}

TEST(Robustness, ElementwiseSwitchAboveLClampsToFig9) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    util::Rng rng(4);
    const auto base = rng.int_vector(1 << 10, 0, 2048);
    auto expect = base;
    std::sort(expect.begin(), expect.end());
    auto at_l = base;
    auto above = base;
    const ExecReport fig9 = run_gpu(h, alg, std::span(at_l), {}, true, 10);
    const ExecReport huge = run_gpu(h, alg, std::span(above), {}, true, ~std::uint64_t{0});
    EXPECT_EQ(above, expect);
    EXPECT_EQ(at_l, expect);
    EXPECT_EQ(huge.total, fig9.total);
    EXPECT_EQ(huge.gpu_busy, fig9.gpu_busy);
    EXPECT_EQ(huge.levels_gpu, fig9.levels_gpu);
}

TEST(Robustness, ModelRejectsDegenerateInputs) {
    const auto hw = platforms::hpu1();
    const auto rec = model::mergesort_recurrence(1.0);
    EXPECT_THROW(model::AdvancedModel(hw, rec, 1.0), util::HpuError);   // n <= 1
    model::Recurrence bad = rec;
    bad.a = 1.0;
    EXPECT_THROW(model::AdvancedModel(hw, bad, 1024.0), util::HpuError);
    model::Recurrence no_f = rec;
    no_f.f = nullptr;
    EXPECT_THROW(model::AdvancedModel(hw, no_f, 1024.0), util::HpuError);
}

TEST(Robustness, TinyInputsAcrossSchedulers) {
    // n = 2 is the smallest admissible mergesort input; every scheduler
    // must handle the single-merge tree.
    sim::Hpu h(platforms::hpu2());
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> d = {9, 3};
    run_sequential(h.cpu(), alg, std::span(d));
    EXPECT_EQ(d, (std::vector<std::int32_t>{3, 9}));
    d = {7, 1};
    run_gpu(h, alg, std::span(d));
    EXPECT_EQ(d, (std::vector<std::int32_t>{1, 7}));
    d = {5, 2};
    run_basic_hybrid(h, alg, std::span(d));
    EXPECT_EQ(d, (std::vector<std::int32_t>{2, 5}));
    d = {8, 4};
    run_advanced_hybrid(h, alg, std::span(d), 0.4, 1);
    EXPECT_EQ(d, (std::vector<std::int32_t>{4, 8}));
}

TEST(Robustness, ExtremeDeviceParameters) {
    // A 1-lane "GPU" degenerates to a slow serial coprocessor; schedulers
    // must still terminate and sort.
    sim::HpuParams hw = platforms::hpu1();
    hw.gpu.g = 1;
    hw.gpu.gamma = 0.9;
    sim::Hpu h(hw);
    algos::MergesortCoalesced<std::int32_t> alg;
    util::Rng rng(3);
    auto d = rng.int_vector(256, 0, 512);
    auto expect = d;
    std::sort(expect.begin(), expect.end());
    run_basic_hybrid(h, alg, std::span(d));
    EXPECT_EQ(d, expect);
}

}  // namespace
}  // namespace hpu::core
