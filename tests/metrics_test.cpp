// hpu::metrics: histogram primitives, the Prometheus / JSON exporters,
// ThreadPool telemetry, the dual-clock ProfileReport — and the
// zero-perturbation invariant: turning
// ExecOptions::profile on must leave the virtual side of every executor
// (ExecReport, span tree virtual fields, outputs) byte-identical, pooled
// or inline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "metrics/export.hpp"
#include "metrics/profile.hpp"
#include "metrics/registry.hpp"
#include "platforms/platforms.hpp"
#include "util/histogram.hpp"
#include "util/thread_pool.hpp"

namespace hpu {
namespace {

// ---------------------------------------------------------------------------
// Log2Histogram.

TEST(Log2Histogram, BucketOfMapsPowersOfTwo) {
    EXPECT_EQ(util::Log2Histogram::bucket_of(0), 0u);
    EXPECT_EQ(util::Log2Histogram::bucket_of(1), 1u);
    EXPECT_EQ(util::Log2Histogram::bucket_of(2), 2u);
    EXPECT_EQ(util::Log2Histogram::bucket_of(3), 2u);
    EXPECT_EQ(util::Log2Histogram::bucket_of(4), 3u);
    EXPECT_EQ(util::Log2Histogram::bucket_of(7), 3u);
    EXPECT_EQ(util::Log2Histogram::bucket_of(8), 4u);
    EXPECT_EQ(util::Log2Histogram::bucket_of(~std::uint64_t{0}), 63u);
}

TEST(Log2Histogram, RecordSnapshotResetRoundTrip) {
    util::Log2Histogram h;
    for (std::uint64_t v : {0ull, 1ull, 3ull, 100ull, 100ull}) h.record(v);
    util::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.sum, 204u);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, 100u);
    EXPECT_DOUBLE_EQ(s.mean(), 204.0 / 5.0);
    EXPECT_EQ(s.buckets[0], 1u);  // the zero bucket
    EXPECT_EQ(s.buckets[1], 1u);  // v == 1
    EXPECT_EQ(s.buckets[2], 1u);  // v == 3
    EXPECT_EQ(s.buckets[7], 2u);  // 64 <= 100 < 128
    EXPECT_EQ(std::accumulate(s.buckets.begin(), s.buckets.end(), std::uint64_t{0}),
              s.count);

    h.reset();
    s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0u);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, 0u);
}

TEST(Log2Histogram, QuantilesInterpolateWithinBuckets) {
    util::Log2Histogram h;
    // 100 samples spread over [64, 128): one log2 bucket, so quantiles
    // interpolate linearly across it but clamp to the observed extremes.
    for (std::uint64_t v = 0; v < 100; ++v) h.record(64 + v / 2);
    const util::HistogramSnapshot s = h.snapshot();
    EXPECT_GE(s.p50(), static_cast<double>(s.min));
    EXPECT_LE(s.p50(), static_cast<double>(s.max));
    EXPECT_LE(s.p50(), s.p90());
    EXPECT_LE(s.p90(), s.p99());
    EXPECT_DOUBLE_EQ(s.quantile(0.0), static_cast<double>(s.min));
    EXPECT_DOUBLE_EQ(s.quantile(1.0), static_cast<double>(s.max));
}

TEST(Log2Histogram, QuantilesAcrossBucketsSeparateTheTail) {
    util::Log2Histogram h;
    for (int i = 0; i < 98; ++i) h.record(10);     // bucket [8, 16)
    h.record(1000);                                // bucket [512, 1024)
    h.record(1000);
    const util::HistogramSnapshot s = h.snapshot();
    EXPECT_LT(s.p50(), 16.0);
    EXPECT_LT(s.p90(), 16.0);
    EXPECT_GE(s.p99(), 512.0);  // the tail lands in the high bucket
    EXPECT_LE(s.p99(), 1000.0);
}

TEST(Log2Histogram, QuantileEdgeCases) {
    util::Log2Histogram empty;
    EXPECT_EQ(empty.snapshot().p50(), 0.0);
    EXPECT_EQ(empty.snapshot().p99(), 0.0);

    util::Log2Histogram zeros;
    zeros.record(0);
    zeros.record(0);
    EXPECT_EQ(zeros.snapshot().p50(), 0.0);
    EXPECT_EQ(zeros.snapshot().p99(), 0.0);

    util::Log2Histogram single;
    single.record(777);
    const util::HistogramSnapshot s = single.snapshot();
    // One sample: every quantile is that sample (clamped to min == max).
    EXPECT_DOUBLE_EQ(s.p50(), 777.0);
    EXPECT_DOUBLE_EQ(s.p90(), 777.0);
    EXPECT_DOUBLE_EQ(s.p99(), 777.0);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(Exporters, PrometheusTextFormatIsWellFormed) {
    util::Log2Histogram h;
    h.record(0);
    h.record(3);
    h.record(100);
    metrics::RegistrySnapshot snap;
    snap.counters.push_back({"hpu_events_total", "events seen", 7});
    snap.gauges.push_back({"hpu_ratio", "a ratio", 0.5});
    snap.histograms.push_back({"hpu_latency_ns", "latencies", h.snapshot()});

    std::ostringstream os;
    metrics::export_prometheus(snap, os);
    const std::string text = os.str();

    EXPECT_NE(text.find("# TYPE hpu_events_total counter"), std::string::npos);
    EXPECT_NE(text.find("hpu_events_total 7"), std::string::npos);
    EXPECT_NE(text.find("# TYPE hpu_ratio gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE hpu_latency_ns histogram"), std::string::npos);
    // Cumulative buckets: le="0" holds the zero value, le="3" adds v=3,
    // the last series is always +Inf with the full count.
    EXPECT_NE(text.find("hpu_latency_ns_bucket{le=\"0\"} 1"), std::string::npos);
    EXPECT_NE(text.find("hpu_latency_ns_bucket{le=\"3\"} 2"), std::string::npos);
    EXPECT_NE(text.find("hpu_latency_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
    EXPECT_NE(text.find("hpu_latency_ns_sum 103"), std::string::npos);
    EXPECT_NE(text.find("hpu_latency_ns_count 3"), std::string::npos);
    // Buckets above the highest non-empty one are elided.
    EXPECT_EQ(text.find("le=\"255\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// ThreadPool telemetry.

TEST(PoolTelemetry, AccountsBusyIdleAndChunks) {
    util::ThreadPool pool(2);
    std::atomic<std::uint64_t> sink{0};
    for (int b = 0; b < 4; ++b) {
        pool.parallel_for(256, [&](std::size_t i) {
            std::uint64_t x = i;
            for (int k = 0; k < 200; ++k) x = x * 2654435761ull + k;
            sink.fetch_add(x, std::memory_order_relaxed);
        });
    }
    const util::PoolTelemetry t = pool.telemetry();
    EXPECT_EQ(t.workers, 2u);
    EXPECT_EQ(t.batches, 4u);
    ASSERT_EQ(t.per_worker.size(), 3u);  // 2 workers + the caller slot
    std::uint64_t chunks = 0, indices = 0;
    for (const auto& w : t.per_worker) {
        chunks += w.chunks;
        indices += w.indices;
    }
    EXPECT_GT(chunks, 0u);
    EXPECT_EQ(indices, 4u * 256u);
    // The caller always participates, so total busy is positive even if
    // the workers never won a claim on a loaded host.
    std::uint64_t busy = 0;
    for (const auto& w : t.per_worker) busy += w.busy_ns;
    EXPECT_GT(busy, 0u);
    EXPECT_EQ(t.claim_size.count, chunks);
    EXPECT_GT(t.submit_latency_ns.count, 0u);
    EXPECT_GT(t.window_ns, 0u);
    // busy + idle explains most of workers x window; generous lower bound
    // because CI hosts may be oversubscribed (acceptance tightens this on
    // the dedicated wallclock harness instead).
    EXPECT_GT(t.accounted_share(), 0.5);
    EXPECT_LE(t.accounted_share(), 1.05);

    pool.reset_telemetry();
    const util::PoolTelemetry r = pool.telemetry();
    EXPECT_EQ(r.batches, 0u);
    std::uint64_t busy_after = 0;
    for (const auto& w : r.per_worker) busy_after += w.busy_ns;
    EXPECT_EQ(busy_after, 0u);
    EXPECT_EQ(r.claim_size.count, 0u);
}

TEST(PoolTelemetry, InlinePoolCollectsNothing) {
    util::ThreadPool pool(0);
    pool.parallel_for(64, [](std::size_t) {});
    const util::PoolTelemetry t = pool.telemetry();
    EXPECT_EQ(t.workers, 0u);
    EXPECT_TRUE(t.per_worker.empty());
    EXPECT_DOUBLE_EQ(t.accounted_share(), 1.0);
}

TEST(PoolTelemetry, PublishPoolEmitsTheMetricNamespace) {
    util::ThreadPool pool(2);
    pool.parallel_for(128, [](std::size_t) {});
    metrics::RegistrySnapshot snap;
    metrics::publish_pool(snap, pool.telemetry());
    std::ostringstream os;
    metrics::export_prometheus(snap, os);
    const std::string text = os.str();
    for (const char* name :
         {"hpu_pool_workers", "hpu_pool_worker_busy_ns_total", "hpu_pool_worker_idle_ns_total",
          "hpu_pool_chunks_claimed_total", "hpu_pool_worker_utilization",
          "hpu_pool_accounted_share", "hpu_pool_claim_size_indices",
          "hpu_pool_submit_latency_ns"}) {
        EXPECT_NE(text.find(name), std::string::npos) << name;
    }
}

// ---------------------------------------------------------------------------
// Dual-clock profile.

core::ExecReport run_profiled(sim::Hpu& h, const algos::MergesortCoalesced<std::int32_t>& alg,
                              std::vector<std::int32_t>& data, trace::TraceSession& ts) {
    core::AdvancedOptions adv;
    adv.exec.trace = &ts;
    adv.exec.profile = true;
    adv.exec.functional = true;
    adv.exec.validate = false;
    return run_advanced_hybrid(h, alg, std::span(data), 0.3, 2, adv);
}

std::vector<std::int32_t> profile_input(std::uint64_t n) {
    std::vector<std::int32_t> v(n);
    std::uint64_t x = 12345;
    for (auto& e : v) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        e = static_cast<std::int32_t>(x >> 40);
    }
    return v;
}

TEST(Profile, DeriveProfileJoinsWallAndVirtualPerPhase) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = profile_input(1 << 12);
    trace::TraceSession ts;
    run_profiled(h, alg, data, ts);

    const metrics::ProfileReport rep = metrics::derive_profile(ts);
    ASSERT_EQ(rep.executors.size(), 1u);
    const metrics::ExecutorProfile& ep = rep.executors[0];
    EXPECT_NE(ep.label.find("advanced-hybrid"), std::string::npos);
    EXPECT_GT(ep.virtual_ticks, 0.0);
    EXPECT_GT(ep.wall_ns, 0u);
    EXPECT_GT(ep.attributed_wall_ns, 0u);
    // Children are disjoint subintervals of the run (the 1 ns clamp for
    // immeasurably short spans gives each span at most 1 extra ns).
    EXPECT_LE(ep.attributed_wall_ns, ep.wall_ns + ts.spans().size());
    ASSERT_FALSE(ep.phases.empty());
    std::vector<std::string> labels;
    for (const auto& ph : ep.phases) {
        labels.push_back(ph.label);
        EXPECT_GT(ph.wall_ns, 0u);
        EXPECT_GT(ph.spans, 0u);
    }
    // The advanced hybrid's attribution buckets are its scheduler phases.
    EXPECT_NE(std::find_if(labels.begin(), labels.end(),
                           [](const std::string& l) {
                               return l.find("cpu-parallel") != std::string::npos;
                           }),
              labels.end());
    EXPECT_NE(std::find_if(labels.begin(), labels.end(),
                           [](const std::string& l) {
                               return l.find("gpu-phase") != std::string::npos;
                           }),
              labels.end());
    EXPECT_EQ(rep.total_wall_ns, ep.wall_ns);

    std::ostringstream os;
    metrics::export_profile_json(rep, os);
    const std::string json = os.str();
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"executors\""), std::string::npos);
}

TEST(Profile, HostEfficiencyIsInUnitInterval) {
    util::ThreadPool pool(2);
    sim::Hpu h(platforms::hpu1(), &pool);
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = profile_input(1 << 12);
    trace::TraceSession ts;
    pool.reset_telemetry();
    run_profiled(h, alg, data, ts);
    const util::PoolTelemetry t = pool.telemetry();

    const metrics::ProfileReport rep = metrics::derive_profile(ts, &t);
    ASSERT_TRUE(rep.pool.present);
    EXPECT_EQ(rep.pool.workers, 2u);
    EXPECT_GT(rep.pool.host_efficiency, 0.0);
    EXPECT_LE(rep.pool.host_efficiency, 1.0);
    EXPECT_GE(rep.pool.overhead_share, 0.0);
    EXPECT_GT(rep.pool.chunks, 0u);

    std::ostringstream os;
    rep.print(os);
    EXPECT_NE(os.str().find("host efficiency"), std::string::npos);
}

TEST(Profile, UnprofiledSessionYieldsNoExecutors) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = profile_input(1 << 12);
    trace::TraceSession ts;
    core::AdvancedOptions adv;
    adv.exec.trace = &ts;
    adv.exec.profile = false;
    adv.exec.validate = false;
    run_advanced_hybrid(h, alg, std::span(data), 0.3, 2, adv);
    for (const trace::Span& s : ts.spans()) EXPECT_EQ(s.wall_ns, 0u);
    EXPECT_TRUE(metrics::derive_profile(ts).executors.empty());
}

TEST(Profile, EmptySessionYieldsEmptyReport) {
    trace::TraceSession ts;
    const metrics::ProfileReport rep = metrics::derive_profile(ts);
    EXPECT_TRUE(rep.executors.empty());
    EXPECT_EQ(rep.total_wall_ns, 0u);
    EXPECT_EQ(rep.total_virtual, 0.0);
    EXPECT_FALSE(rep.pool.present);
    std::ostringstream os;
    rep.print(os);  // must not crash, and must say why it is empty
    EXPECT_NE(os.str().find("no wall-annotated spans"), std::string::npos);
}

TEST(Profile, SingleAnnotatedRunSpanProfilesWithoutPhases) {
    trace::TraceSession ts;
    const trace::SpanId run =
        ts.record(trace::SpanKind::kRun, trace::Unit::kHost, "solo/run", 0.0, 42.0);
    ts.annotate_wall(run, 1'000, 84);
    const metrics::ProfileReport rep = metrics::derive_profile(ts);
    ASSERT_EQ(rep.executors.size(), 1u);
    EXPECT_EQ(rep.executors[0].wall_ns, 84u);
    EXPECT_EQ(rep.executors[0].virtual_ticks, 42.0);
    EXPECT_EQ(rep.executors[0].attributed_wall_ns, 0u);
    EXPECT_TRUE(rep.executors[0].phases.empty());
    EXPECT_EQ(rep.wall_epoch_ns, 1'000u);
}

TEST(Profile, MixedProfiledAndUnprofiledSubtreesSkipTheUnprofiled) {
    // Two runs in one session; only the first was profiled. The second's
    // spans all carry the wall_ns == 0 sentinel and must not contribute an
    // executor or shift the epoch.
    trace::TraceSession ts;
    const auto r1 = ts.record(trace::SpanKind::kRun, trace::Unit::kHost, "a/run", 0.0, 10.0);
    trace::SpanAttrs attrs;
    attrs.level = 1;
    const auto c1 = ts.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "a/level", 0.0,
                              6.0, attrs, r1);
    const auto r2 = ts.record(trace::SpanKind::kRun, trace::Unit::kHost, "b/run", 0.0, 20.0);
    ts.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "b/level", 0.0, 20.0, attrs, r2);
    ts.annotate_wall(r1, 5'000, 100);
    ts.annotate_wall(c1, 5'010, 60);

    const metrics::ProfileReport rep = metrics::derive_profile(ts);
    ASSERT_EQ(rep.executors.size(), 1u);
    EXPECT_EQ(rep.executors[0].label, "a/run");
    EXPECT_EQ(rep.executors[0].wall_ns, 100u);
    EXPECT_EQ(rep.executors[0].attributed_wall_ns, 60u);
    ASSERT_EQ(rep.executors[0].phases.size(), 1u);
    EXPECT_EQ(rep.executors[0].phases[0].label, "(direct)");
    EXPECT_DOUBLE_EQ(rep.executors[0].phases[0].ns_per_tick, 10.0);
    EXPECT_EQ(rep.total_wall_ns, 100u);
    EXPECT_EQ(rep.wall_epoch_ns, 5'000u);
}

TEST(Profile, PoolSubmitLatencyQuantilesFoldIn) {
    util::ThreadPool pool(2);
    pool.parallel_for(512, [](std::size_t) {});
    const util::PoolTelemetry t = pool.telemetry();
    trace::TraceSession ts;  // no annotated spans needed for the pool side
    const metrics::ProfileReport rep = metrics::derive_profile(ts, &t);
    ASSERT_TRUE(rep.pool.present);
    EXPECT_GT(rep.pool.submit_p99_ns, 0.0);
    EXPECT_LE(rep.pool.submit_p50_ns, rep.pool.submit_p90_ns);
    EXPECT_LE(rep.pool.submit_p90_ns, rep.pool.submit_p99_ns);
    std::ostringstream os;
    metrics::export_profile_json(rep, os);
    EXPECT_NE(os.str().find("\"submit_p99_ns\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Zero perturbation: profiling must not move the virtual clock.

struct VirtualArtifacts {
    core::ExecReport rep;
    std::vector<trace::Span> spans;
    std::vector<std::int32_t> out;
    bool any_wall = false;
};

VirtualArtifacts run_virtual(util::ThreadPool* pool, int executor, bool functional,
                             bool profile, const std::vector<std::int32_t>& input) {
    sim::HpuParams hw = platforms::hpu1();
    hw.cpu.p = 4;
    hw.gpu.g = 64;
    sim::Hpu h(hw, pool);
    algos::MergesortCoalesced<std::int32_t> alg;
    trace::TraceSession ts;
    core::ExecOptions opts;
    opts.functional = functional;
    opts.validate = false;
    opts.trace = &ts;
    opts.profile = profile;

    VirtualArtifacts art;
    art.out = input;
    std::span<std::int32_t> data(art.out);
    switch (executor) {
        case 0: art.rep = run_sequential(h.cpu(), alg, data, opts); break;
        case 1: art.rep = run_multicore(h.cpu(), alg, data, opts); break;
        case 2: art.rep = run_gpu(h, alg, data, opts); break;
        case 3: art.rep = run_basic_hybrid(h, alg, data, opts); break;
        case 4: {
            core::AdvancedOptions adv;
            adv.exec = opts;
            art.rep = run_advanced_hybrid(h, alg, data, 0.3, 2, adv);
            break;
        }
        default: {
            core::PipelinedOptions pip;
            pip.chunks = 4;
            pip.exec = opts;
            art.rep = run_pipelined_hybrid(h, alg, data, 0.3, 2, pip);
            break;
        }
    }
    art.spans = ts.spans();
    for (const trace::Span& s : art.spans) art.any_wall |= s.wall_ns != 0;
    return art;
}

void expect_virtual_identical(const VirtualArtifacts& a, const VirtualArtifacts& b) {
    EXPECT_EQ(a.rep.total, b.rep.total);
    EXPECT_EQ(a.rep.cpu_busy, b.rep.cpu_busy);
    EXPECT_EQ(a.rep.gpu_busy, b.rep.gpu_busy);
    EXPECT_EQ(a.rep.transfer, b.rep.transfer);
    EXPECT_EQ(a.rep.finish, b.rep.finish);
    EXPECT_EQ(a.rep.levels_cpu, b.rep.levels_cpu);
    EXPECT_EQ(a.rep.levels_gpu, b.rep.levels_gpu);
    EXPECT_EQ(a.rep.alpha_effective, b.rep.alpha_effective);
    EXPECT_EQ(a.rep.chunks, b.rep.chunks);
    EXPECT_EQ(a.out, b.out);
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
        EXPECT_EQ(sa.start, sb.start);  // virtual fields: exact
        EXPECT_EQ(sa.end, sb.end);
        EXPECT_EQ(sa.attrs.level, sb.attrs.level);
        EXPECT_EQ(sa.attrs.tasks, sb.attrs.tasks);
        EXPECT_EQ(sa.attrs.items, sb.attrs.items);
        EXPECT_EQ(sa.attrs.waves, sb.attrs.waves);
        EXPECT_EQ(sa.attrs.ops, sb.attrs.ops);
        EXPECT_EQ(sa.attrs.work, sb.attrs.work);
        EXPECT_EQ(sa.attrs.bytes, sb.attrs.bytes);
        EXPECT_EQ(sa.attrs.coalesced_transactions, sb.attrs.coalesced_transactions);
        EXPECT_EQ(sa.attrs.strided_transactions, sb.attrs.strided_transactions);
    }
}

constexpr const char* kExecutors[] = {"sequential", "multicore", "gpu",
                                      "basic",      "advanced",  "pipelined"};

TEST(ProfileZeroPerturbation, VirtualSideIdenticalAcrossExecutorsAndPools) {
    const auto input = profile_input(1 << 10);
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
    for (util::ThreadPool* p : {&inline_pool, &pool}) {
        for (const bool functional : {true, false}) {
            for (int e = 0; e < 6; ++e) {
                SCOPED_TRACE(::testing::Message()
                             << "executor=" << kExecutors[e] << " functional=" << functional
                             << " workers=" << p->worker_count());
                const auto plain = run_virtual(p, e, functional, false, input);
                const auto profiled = run_virtual(p, e, functional, true, input);
                expect_virtual_identical(plain, profiled);
                EXPECT_FALSE(plain.any_wall);
                EXPECT_TRUE(profiled.any_wall);  // profiling actually engaged
            }
        }
    }
}

}  // namespace
}  // namespace hpu
