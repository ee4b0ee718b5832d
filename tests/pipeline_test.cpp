// The pipelined hybrid (DESIGN.md §9) and its transfer engine:
//  * the link carries the walker's transfers FIFO on the virtual clock;
//  * K = 1 reproduces the advanced hybrid's makespan exactly (same float
//    operations in the same order — EXPECT_EQ, not NEAR);
//  * the no-win guard keeps the pipelined schedule never worse than the
//    advanced one across the fig8 size sweep, and strictly better at the
//    two largest (transfer-bound) sizes;
//  * functional and analytic clocks agree, and the functional run sorts;
//  * the PipelinedModel's overlap formula tracks the executor within a
//    drift bound, and its K = 1 degeneration is exact;
//  * a validated run checks the schedule it executed: a pipelined run is
//    clean, and a plan that ships the device slice twice is flagged;
//  * the trace records one transfer span per streamed chunk, nested under
//    the gpu phase span.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "algos/mergesort.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "model/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

// The link is one FIFO resource: the walker starts each transfer once its
// words are ready and the link has carried everything queued before it,
// and the transfer lasts λ + δ·w. The chunks shipped in are ready when the
// device lane starts; a chunk's results when its climb ends. A slow link
// keeps results queued behind the link, a fast one leaves it idle until
// each climb ends.
TEST(PipelinedHybrid, LinkCarriesTransfersFifo) {
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1ull << 22;
    std::uint64_t queued = 0;  // results that waited on the link
    std::uint64_t idle = 0;    // results the link waited for
    for (const double delta : {0.01, 1.0, 4.0}) {
        SCOPED_TRACE(::testing::Message() << "delta=" << delta);
        sim::HpuParams hw = platforms::hpu1();
        hw.link.delta = delta;
        const Plan p = plan_pipelined(alg, hw, n, 0.2, 20, 4);
        ASSERT_EQ(p.chunks, 4u);
        ASSERT_FALSE(p.gpu.back().merge);  // results ship back chunk by chunk
        const verify::SchedulePlan s = price_plan(p, alg, hw);
        std::vector<const verify::PlanEvent*> link;
        for (const verify::PlanEvent& e : s.events) {
            if (e.unit == verify::PlanEvent::Unit::kLink) link.push_back(&e);
        }
        ASSERT_EQ(link.size(), 8u);
        const double lane = link.front()->start;
        double link_free = lane;
        for (const verify::PlanEvent* e : link) {
            double ready = lane;
            if (e->kind == verify::PlanEvent::Kind::kXferOut) {
                ready = 0.0;  // the end of the last level over this chunk
                for (const verify::PlanEvent& g : s.events) {
                    if (g.unit == verify::PlanEvent::Unit::kGpu && g.offset >= e->offset &&
                        g.offset + g.words <= e->offset + e->words) {
                        ready = std::max(ready, g.start + g.duration);
                    }
                }
                ASSERT_GT(ready, lane);
                (ready < link_free ? queued : idle) += 1;
            }
            EXPECT_NEAR(e->start, std::max(ready, link_free), 1e-12 * link_free) << e->label;
            EXPECT_EQ(e->duration, hw.link.transfer_time(static_cast<double>(e->words)));
            link_free = e->start + e->duration;
        }
    }
    EXPECT_GT(queued, 0u);
    EXPECT_GT(idle, 0u);
}

TEST(PipelinedHybrid, K1ReproducesAdvancedExactly) {
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1ull << 14;
    for (const auto& spec : platforms::all()) {
        for (const bool functional : {true, false}) {
            SCOPED_TRACE(::testing::Message() << spec.name << (functional ? " functional"
                                                                          : " analytic"));
            std::vector<std::int32_t> base(n);
            if (functional) {
                util::Rng rng(7);
                base = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
            }
            AdvancedOptions adv;
            adv.exec.functional = functional;
            sim::Hpu ha(spec.params);
            auto da = base;
            const auto a = run_advanced_hybrid(ha, alg, std::span(da), 0.3, 8, adv);

            PipelinedOptions pip;
            pip.chunks = 1;
            pip.exec.functional = functional;
            sim::Hpu hp(spec.params);
            auto dp = base;
            const auto p = run_pipelined_hybrid(hp, alg, std::span(dp), 0.3, 8, pip);

            // Bit-for-bit: the K = 1 schedule is the advanced schedule.
            EXPECT_EQ(p.total, a.total);
            EXPECT_EQ(p.cpu_busy, a.cpu_busy);
            EXPECT_EQ(p.gpu_busy, a.gpu_busy);
            EXPECT_EQ(p.transfer, a.transfer);
            EXPECT_EQ(p.finish, a.finish);
            EXPECT_EQ(p.chunks, 1u);
            if (functional) {
                EXPECT_EQ(dp, da);
            }
        }
    }
}

TEST(PipelinedHybrid, GuardKeepsPipelineNeverWorseAcrossSizes) {
    algos::MergesortCoalesced<std::int32_t> alg;
    for (const auto& spec : platforms::all()) {
        for (int lg = 10; lg <= 24; lg += 2) {
            const std::uint64_t n = 1ull << lg;
            model::AdvancedModel m(spec.params, alg.recurrence(), static_cast<double>(n));
            const auto opt = m.optimize();
            const auto y = std::clamp<std::uint64_t>(
                static_cast<std::uint64_t>(std::llround(opt.y)), 1,
                static_cast<std::uint64_t>(lg));
            ExecOptions opts;
            opts.functional = false;
            std::vector<std::int32_t> data(n);
            AdvancedOptions adv;
            adv.exec = opts;
            sim::Hpu ha(spec.params);
            const auto a = run_advanced_hybrid(ha, alg, std::span(data), opt.alpha, y, adv);
            for (const std::uint64_t k : {2ull, 4ull, 8ull}) {
                SCOPED_TRACE(::testing::Message()
                             << spec.name << " lg=" << lg << " K=" << k);
                PipelinedOptions pip;
                pip.chunks = k;
                pip.exec = opts;
                sim::Hpu hp(spec.params);
                const auto p =
                    run_pipelined_hybrid(hp, alg, std::span(data), opt.alpha, y, pip);
                // The guard prices both schedules with the executor's own
                // arithmetic, so in analytic mode "never worse" is exact.
                EXPECT_LE(p.total, a.total * (1.0 + 1e-12) + 1e-6);
            }
        }
    }
}

TEST(PipelinedHybrid, StrictOverlapWinAtTransferBoundSizes) {
    algos::MergesortCoalesced<std::int32_t> alg;
    for (const auto& spec : platforms::all()) {
        for (const int lg : {22, 24}) {
            const std::uint64_t n = 1ull << lg;
            model::AdvancedModel m(spec.params, alg.recurrence(), static_cast<double>(n));
            const auto opt = m.optimize();
            const auto y = std::clamp<std::uint64_t>(
                static_cast<std::uint64_t>(std::llround(opt.y)), 1,
                static_cast<std::uint64_t>(lg));
            ExecOptions opts;
            opts.functional = false;
            std::vector<std::int32_t> data(n);
            AdvancedOptions adv;
            adv.exec = opts;
            sim::Hpu ha(spec.params);
            const auto a = run_advanced_hybrid(ha, alg, std::span(data), opt.alpha, y, adv);
            for (const std::uint64_t k : {4ull, 8ull}) {
                SCOPED_TRACE(::testing::Message()
                             << spec.name << " lg=" << lg << " K=" << k);
                PipelinedOptions pip;
                pip.chunks = k;
                pip.exec = opts;
                sim::Hpu hp(spec.params);
                const auto p =
                    run_pipelined_hybrid(hp, alg, std::span(data), opt.alpha, y, pip);
                EXPECT_LT(p.total, a.total);
                EXPECT_EQ(p.chunks, k);
            }
        }
    }
}

TEST(PipelinedHybrid, FunctionalMatchesAnalyticAndSorts) {
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1ull << 15;
    util::Rng rng(11);
    auto data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    auto expect = data;
    std::sort(expect.begin(), expect.end());

    PipelinedOptions fun;
    fun.chunks = 4;
    fun.exec.functional = true;
    sim::Hpu hf(platforms::hpu1());
    const auto f = run_pipelined_hybrid(hf, alg, std::span(data), 0.3, 8, fun);
    EXPECT_EQ(data, expect);

    PipelinedOptions ana;
    ana.chunks = 4;
    ana.exec.functional = false;
    std::vector<std::int32_t> blank(n);
    sim::Hpu han(platforms::hpu1());
    const auto a = run_pipelined_hybrid(han, alg, std::span(blank), 0.3, 8, ana);
    // Uniform-cost algorithm: the two clocks price every launch the same.
    EXPECT_NEAR(f.total, a.total, 1e-9 * a.total);
    EXPECT_EQ(f.chunks, a.chunks);
}

TEST(PipelinedModel, K1DegenerationIsExactAndGainNonNegative) {
    algos::MergesortCoalesced<std::int32_t> alg;
    for (const auto& spec : platforms::all()) {
        const double n = static_cast<double>(1ull << 22);
        model::PipelinedModel pm(spec.params, alg.recurrence(), n);
        pm.set_device_ops_multiplier(alg.device_ops_multiplier(spec.params.gpu));
        const double mult = alg.device_ops_multiplier(spec.params.gpu);
        for (const double alpha : {0.2, 0.35, 0.5}) {
            for (const double y : {6.0, 9.0, 12.0}) {
                SCOPED_TRACE(::testing::Message()
                             << spec.name << " alpha=" << alpha << " y=" << y);
                const double beta = 1.0 - alpha;
                const double w = beta * n;
                const double x = spec.params.link.lambda + spec.params.link.delta * w;
                const double expect1 =
                    x + mult * pm.advanced().gpu_time_for_share(beta, y) + x;
                EXPECT_DOUBLE_EQ(pm.gpu_span(alpha, y, 1), expect1);
                for (const std::uint64_t k : {2ull, 4ull, 8ull}) {
                    const double d = pm.merge_level(alpha, y, k);
                    EXPECT_GE(d, y);
                    EXPECT_LE(d, pm.advanced().levels());
                    const auto p = pm.predict_at(alpha, y, k);
                    EXPECT_GE(p.pipeline_gain, -1e-9);
                    EXPECT_LE(p.total_time, p.advanced_total + 1e-9);
                    EXPECT_TRUE(p.chunks_effective == 1 || p.chunks_effective == k);
                }
            }
        }
    }
}

TEST(PipelinedModel, OverlapFormulaTracksExecutor) {
    algos::MergesortCoalesced<std::int32_t> alg;
    for (const auto& spec : platforms::all()) {
        for (const int lg : {20, 22}) {
            SCOPED_TRACE(::testing::Message() << spec.name << " lg=" << lg);
            const std::uint64_t n = 1ull << lg;
            model::PipelinedModel pm(spec.params, alg.recurrence(), static_cast<double>(n));
            pm.set_device_ops_multiplier(alg.device_ops_multiplier(spec.params.gpu));
            const auto opt = pm.advanced().optimize();
            const auto y = std::clamp<std::uint64_t>(
                static_cast<std::uint64_t>(std::llround(opt.y)), 1,
                static_cast<std::uint64_t>(lg));
            const std::uint64_t k = 8;
            const auto p = pm.predict_at(opt.alpha, static_cast<double>(y), k);

            ExecOptions opts;
            opts.functional = false;
            std::vector<std::int32_t> data(n);
            PipelinedOptions pip;
            pip.chunks = k;
            pip.exec = opts;
            sim::Hpu hp(spec.params);
            const auto rep = run_pipelined_hybrid(hp, alg, std::span(data), opt.alpha, y, pip);
            AdvancedOptions adv;
            adv.exec = opts;
            sim::Hpu ha(spec.params);
            const auto arep =
                run_advanced_hybrid(ha, alg, std::span(data), opt.alpha, y, adv);

            // The continuous model vs the wave-quantized executor: bounded
            // drift on the parallel phase (mergesort has no pre pass, so
            // total − finish is the parallel span) and on the totals.
            const double measured = rep.total - rep.finish;
            const double predicted = p.total_time - p.finish_time;
            EXPECT_LT(std::abs(predicted - measured) / measured, 0.15);
            EXPECT_LT(std::abs(p.total_time - rep.total) / rep.total, 0.15);
            EXPECT_LT(std::abs(p.advanced_total - arep.total) / arep.total, 0.15);
            // The modelled overlap gain and the simulated one agree in sign
            // and within the same drift envelope.
            const double sim_gain = arep.total - rep.total;
            EXPECT_GE(sim_gain, 0.0);
            EXPECT_LT(std::abs(p.pipeline_gain - sim_gain) / rep.total, 0.15);
        }
    }
}

TEST(PipelinedAnalysis, ValidatedRunExecutesACleanSchedule) {
    // A validated functional pipelined run reports no findings: its
    // launches are sequenced on the arrival of their chunks.
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1ull << 14;
    util::Rng rng(5);
    auto data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    PipelinedOptions pip;
    pip.chunks = 4;
    pip.exec.functional = true;
    pip.exec.validate = true;
    sim::Hpu h(platforms::hpu1());
    const auto rep = run_pipelined_hybrid(h, alg, std::span(data), 0.3, 8, pip);
    EXPECT_FALSE(rep.analysis.has(analysis::FindingKind::kScheduleViolation));
    EXPECT_TRUE(rep.analysis.clean()) << rep.analysis.summary();
}

TEST(PipelinedAnalysis, DuplicatedDeviceClimbIsAScheduleViolation) {
    // A defective advanced plan: the device climb is listed twice, so the
    // slice ships in twice and the first climb runs while the second copy
    // is still crossing the link. Only a validated run checks the schedule
    // it executed, and flags it.
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1ull << 14;
    util::Rng rng(5);
    const auto base = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    sim::Hpu h(platforms::hpu1());
    Plan plan = plan_advanced(alg, h.params(), n, 0.3, 8);
    ASSERT_EQ(plan.gpu.size(), 1u);
    plan.gpu.push_back(plan.gpu.front());
    for (const bool validate : {false, true}) {
        auto data = base;
        ExecOptions opts;
        opts.validate = validate;
        const ExecReport rep = detail::run_plan(plan, h.cpu(), &h.gpu(), h.params(), alg,
                                                std::span(data), opts);
        if (validate) {
            EXPECT_TRUE(rep.analysis.has(analysis::FindingKind::kScheduleViolation))
                << rep.analysis.summary();
            EXPECT_FALSE(rep.analysis.clean());
        } else {
            EXPECT_TRUE(rep.analysis.findings.empty()) << rep.analysis.summary();
        }
    }
}

TEST(PipelinedTrace, OneTransferSpanPerChunkNestedUnderGpuPhase) {
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1ull << 22;
    model::AdvancedModel m(platforms::hpu1(), alg.recurrence(),
                           static_cast<double>(n));
    const auto opt = m.optimize();
    const auto y = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(opt.y)), 1, std::uint64_t{22});
    trace::TraceSession ts;
    PipelinedOptions pip;
    pip.chunks = 4;
    pip.exec.functional = false;
    pip.exec.trace = &ts;
    std::vector<std::int32_t> data(n);
    sim::Hpu h(platforms::hpu1());
    const auto rep = run_pipelined_hybrid(h, alg, std::span(data), opt.alpha, y, pip);
    ASSERT_EQ(rep.chunks, 4u);

    std::vector<const trace::Span*> chunks_in;
    const trace::Span* out = nullptr;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind != trace::SpanKind::kTransfer) continue;
        if (s.label.find("xfer-in-chunk") != std::string::npos) chunks_in.push_back(&s);
        if (s.label.find("xfer-out") != std::string::npos) out = &s;
    }
    ASSERT_EQ(chunks_in.size(), 4u);
    ASSERT_NE(out, nullptr);
    const trace::Span& phase = ts.span(chunks_in.front()->parent);
    EXPECT_EQ(phase.kind, trace::SpanKind::kPhase);
    EXPECT_NE(phase.label.find("gpu-phase"), std::string::npos);
    sim::Ticks prev_end = phase.start;
    for (const trace::Span* c : chunks_in) {
        EXPECT_EQ(c->parent, chunks_in.front()->parent);
        // Chunks ride the link back to back, inside the phase interval.
        EXPECT_GE(c->start, prev_end - 1e-9);
        EXPECT_LE(c->end, phase.end + 1e-9);
        prev_end = c->end;
    }
    EXPECT_LE(out->end, phase.end + 1e-9);
}

}  // namespace
}  // namespace hpu::core
