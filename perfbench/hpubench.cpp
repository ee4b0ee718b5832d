// The hpu benchmark. One closed-loop client — a single thread that submits
// its next job only after the previous one returns — drives one of three
// workloads through the public executor, model, verify and obs entry
// points, checks every output against an independent reference
// (references.hpp), and prints the end-to-end metrics. At most nproc
// threads run: a util::ThreadPool of nproc − 1 workers plus the caller.
//
//   msort      MergesortCoalesced<int32>, n = 2^22, HPU1, functional and
//              pooled; one job = one fresh copy of the input through all six
//              executors (pipelined K = 4, (α, y) from AdvancedModel::optimize).
//   irregular  one job = quickhull on 2^20 uniform-square points, closest
//              pair on 2^18 points, Karatsuba on 2^14-coefficient operands
//              and quickhull on 2^20 points on a circle, each through all
//              six executors.
//   plan       analytic, no pool: {HPU1, HPU2} × lg n ∈ {16, 18, …, 26}; one job
//              = one point: optimize, then basic/advanced/pipelined with the
//              program's trace, verify and observe on, then obs::what_if.
//
// Flags (util::Cli form, --name=value):
//   --workload=msort|irregular|plan
//   --seed=<u64>      input seed (bench::input_seed)
//   --seconds=<s>     measured window; the loop then finishes its input cycle
//   --trace=0|1       0: end-to-end metrics with all tracing off;
//                     1: the traced run — per-layer metrics from the
//                     benchmark's own spans, counters and replay probes
//   --workers=<k>     pool workers (bench::worker_threads; default nproc − 1)
//   --repeats=<k>     set-ups per run; setup_s is their median (bench::repeats)
//   --out-dir=<dir>   where the span file and exported traces go
//   --git-sha=<sha>   recorded in the host-context line
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics, each {"value", "unit"}. Exit status 1 when any job failed.
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "algos/closest_pair.hpp"
#include "algos/karatsuba.hpp"
#include "algos/quickhull.hpp"
#include "common.hpp"
#include "metrics/profile.hpp"
#include "model/observed.hpp"
#include "obs/trace_io.hpp"
#include "obs/watchdog.hpp"
#include "obs/whatif.hpp"
#include "references.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/counters.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "verify/verify.hpp"

namespace {

using namespace hpu;
namespace pb = perfbench;

constexpr const char* kExecutors[] = {"sequential", "multicore", "gpu",
                                      "basic",      "advanced",  "pipelined"};
constexpr int kAdvanced = 4;
constexpr std::uint64_t kChunks = 4;

/// The (α, y) operating point handed to the advanced and pipelined hybrids.
struct Plan {
    double alpha = 0.3;
    std::uint64_t y = 2;
};

Plan plan_from(const model::AdvancedPrediction& opt, std::uint64_t lg) {
    return {opt.alpha, std::clamp<std::uint64_t>(
                           static_cast<std::uint64_t>(std::llround(opt.y)), 1, lg)};
}

/// Every field set explicitly, so HPU_* environment defaults cannot change
/// what is measured.
core::ExecOptions base_options(bool functional) {
    core::ExecOptions o;
    o.functional = functional;
    o.validate = false;
    o.verify = false;
    o.observe = false;
    o.profile = false;
    o.merge_path = true;
    o.trace = nullptr;
    return o;
}

/// One executor call, dispatched as bench/wallclock_harness.cpp does.
template <typename T>
core::ExecReport run_executor(int executor, sim::Hpu& h, const core::LevelAlgorithm<T>& alg,
                              std::span<T> d, const core::ExecOptions& opts, const Plan& plan) {
    switch (executor) {
        case 0: return core::run_sequential(h.cpu(), alg, d, opts);
        case 1: return core::run_multicore(h.cpu(), alg, d, opts);
        case 2: return core::run_gpu(h, alg, d, opts);
        case 3: return core::run_basic_hybrid(h, alg, d, opts);
        case 4: {
            core::AdvancedOptions adv;
            adv.exec = opts;
            return core::run_advanced_hybrid(h, alg, d, plan.alpha, plan.y, adv);
        }
        default: {
            core::PipelinedOptions pip;
            pip.chunks = kChunks;
            pip.exec = opts;
            return core::run_pipelined_hybrid(h, alg, d, plan.alpha, plan.y, pip);
        }
    }
}

/// How one job runs. The tracer and session are set only in traced jobs.
struct JobCtx {
    util::ThreadPool* pool = nullptr;
    pb::Tracer* tracer = nullptr;            ///< the benchmark's spans
    trace::TraceSession* session = nullptr;  ///< the program's trace + profile
    std::int64_t id = -1;
};

struct JobResult {
    double wall_s = 0.0;  ///< the timed region: input copies and executor calls
    bool ok = true;
    std::string error;
    /// Virtual ticks summed over the job's inputs: the sequential run, the
    /// best of basic/advanced/pipelined, AdvancedModel's predicted total and
    /// the simulated advanced run.
    double seq_ticks = 0.0, best_hybrid_ticks = 0.0, predicted_ticks = 0.0,
           advanced_ticks = 0.0;
    std::uint64_t tasks_spawned = 0;
    trace::CounterSnapshot counters;

    void fail(const std::string& what) {
        if (ok) error = what;
        ok = false;
    }
    /// The job's virtual speedup and its model drift.
    double speedup() const { return seq_ticks / best_hybrid_ticks; }
    double drift() const { return std::abs(predicted_ticks - advanced_ticks) / advanced_ticks; }
    /// Folds another input of the same job in (counters are taken job-wide).
    void absorb(const JobResult& o) {
        wall_s += o.wall_s;
        if (!o.ok) fail(o.error);
        seq_ticks += o.seq_ticks;
        best_hybrid_ticks += o.best_hybrid_ticks;
        predicted_ticks += o.predicted_ticks;
        advanced_ticks += o.advanced_ticks;
        tasks_spawned += o.tasks_spawned;
    }
    bool same_virtual(const JobResult& o) const {
        return seq_ticks == o.seq_ticks && best_hybrid_ticks == o.best_hybrid_ticks &&
               predicted_ticks == o.predicted_ticks && advanced_ticks == o.advanced_ticks &&
               tasks_spawned == o.tasks_spawned;
    }
};

/// One input through all six executors, each on a fresh copy, each output
/// checked outside the timed region.
template <typename T, typename Check>
JobResult functional_job(const core::LevelAlgorithm<T>& alg, const std::vector<T>& input,
                         std::vector<T>& work, const sim::HpuParams& hw, const Plan& plan,
                         double predicted_total, const JobCtx& ctx, Check&& check) {
    JobResult r;
    core::ExecOptions o = base_options(true);
    o.trace = ctx.session;
    o.profile = ctx.session != nullptr;
    std::array<double, 6> ticks{};
    const trace::CounterSnapshot c0 = trace::counters().snapshot();
    for (int e = 0; e < 6; ++e) {
        bool ran = false;
        {
            pb::Scope s(ctx.tracer, std::string("core.") + kExecutors[e], ctx.id);
            const std::uint64_t t0 = util::now_ns();
            std::copy(input.begin(), input.end(), work.begin());
            try {
                sim::Hpu h(hw, ctx.pool);
                const core::ExecReport rep = run_executor(e, h, alg, std::span<T>(work), o, plan);
                ticks[static_cast<std::size_t>(e)] = rep.total;
                r.tasks_spawned += rep.tasks_spawned;
                ran = true;
            } catch (const std::exception& ex) {
                r.fail(std::string(kExecutors[e]) + " threw: " + ex.what());
            }
            r.wall_s += static_cast<double>(util::now_ns() - t0) * 1e-9;
        }
        pb::Scope s(ctx.tracer, "algos.check", ctx.id);
        if (ran && !check(std::span<const T>(work))) {
            r.fail(std::string(kExecutors[e]) + " output differs from the reference");
        }
    }
    r.counters = trace::counters().snapshot() - c0;
    r.seq_ticks = ticks[0];
    r.best_hybrid_ticks = std::min({ticks[3], ticks[4], ticks[5]});
    r.predicted_ticks = predicted_total;
    r.advanced_ticks = ticks[kAdvanced];
    return r;
}

/// Per-layer metric values by name.
using Layers = std::map<std::string, double>;

/// Median duration of the benchmark spans named `name`, in seconds
/// (nullopt when no such span was recorded).
std::optional<double> span_median_s(const pb::Tracer& t, const std::string& name) {
    std::vector<double> d;
    for (const pb::BenchSpan& s : t.spans()) {
        if (s.name == name) d.push_back(static_cast<double>(s.duration_ns()) * 1e-9);
    }
    if (d.empty()) return std::nullopt;
    return pb::median(d);
}

/// Runs fn `reps` times, each under a span named `name`.
template <typename Fn>
void timed(pb::Tracer& t, const std::string& name, int reps, Fn&& fn) {
    for (int i = 0; i < reps; ++i) {
        pb::Scope s(&t, name);
        fn();
    }
}

/// Launch widths (GPU, work-items) and level widths (CPU, tasks) of every
/// level and leaf sweep the session recorded.
struct Widths {
    std::vector<std::uint64_t> gpu;
    std::vector<std::uint64_t> cpu;
};

Widths widths_of(const trace::TraceSession& s) {
    Widths w;
    for (const trace::Span& sp : s.spans()) {
        if (sp.kind != trace::SpanKind::kLevel && sp.kind != trace::SpanKind::kLeaves) continue;
        if (sp.unit == trace::Unit::kGpu && sp.attrs.items > 0) w.gpu.push_back(sp.attrs.items);
        if (sp.unit == trace::Unit::kCpu && sp.attrs.tasks > 0) w.cpu.push_back(sp.attrs.tasks);
    }
    return w;
}

/// The root span of the session's `i`-th executor run.
trace::SpanId run_root(const trace::TraceSession& s, std::size_t i) {
    const std::vector<trace::SpanId> roots = s.children(trace::kNoSpan);
    return i < roots.size() ? roots[i] : trace::kNoSpan;
}

class Workload {
public:
    virtual ~Workload() = default;
    /// The stated input size jobs_per_s refers to.
    virtual std::string describe() const = 0;
    /// Jobs before the inputs repeat; runs always end on a whole cycle.
    virtual std::size_t cycle() const = 0;
    virtual JobResult job(std::size_t k, const JobCtx& ctx) = 0;
    /// Recomputes job k's independent reference (traced runs time it as
    /// algos.reference, the floor for the job's data work).
    virtual void reference(std::size_t k) = 0;
    /// The traced run's replay probes, at this workload's own shapes.
    /// `sessions` holds the program traces of the first traced cycle.
    virtual void probes(pb::Tracer& t, Layers& m, util::ThreadPool* pool,
                        const std::vector<trace::TraceSession>& sessions) = 0;
    /// The advanced executor's runs in job k's program trace: the root's
    /// index among the session's runs, and the machine and model it ran.
    struct AdvancedRun {
        std::size_t root = kAdvanced;
        sim::HpuParams hw;
        model::Recurrence rec;
        double device_multiplier = 1.0;
    };
    virtual std::vector<AdvancedRun> advanced_runs(std::size_t k) const = 0;
};

// ------------------------------------------------------------ merge probes

/// merge.serial_gbps / merge.segmented_gbps: one util::merge_segments call of
/// two sorted halves, parts 1 vs workers + 1; bytes are computed (both
/// inputs read once, the output written once), not measured.
template <typename T, typename Less>
void merge_probe(pb::Tracer& t, Layers& m, util::ThreadPool* pool, std::vector<T> a,
                 std::vector<T> b, Less less) {
    std::sort(a.begin(), a.end(), less);
    std::sort(b.begin(), b.end(), less);
    std::vector<T> out(a.size() + b.size());
    const double bytes = 2.0 * static_cast<double>(out.size() * sizeof(T));
    const std::size_t parts = pool->worker_count() + 1;
    for (const auto& [name, p] : {std::pair<std::string, std::size_t>{"merge.serial", 1},
                                  std::pair<std::string, std::size_t>{"merge.segmented", parts}}) {
        timed(t, name, 7, [&] {
            util::merge_segments(pool, a.data(), a.size(), b.data(), b.size(), out.data(), less, p);
        });
        m[name + "_gbps"] = bytes / *span_median_s(t, name) * 1e-9;
    }
}

/// merge.levels_replay_s: every merge level of a bottom-up merge sort of
/// `v` through util::merge_segments, parts chosen per merge as the kernel's
/// call sites do (util::merge_parts). Returns the sorted result.
template <typename T, typename Less>
std::vector<T> merge_levels_replay(pb::Tracer& t, util::ThreadPool* pool, std::vector<T> v,
                                   Less less) {
    pb::Scope s(&t, "merge.levels_replay");
    std::vector<T> tmp(v.size());
    const std::size_t n = v.size();
    for (std::size_t w = 1; w < n; w *= 2) {
        for (std::size_t lo = 0; lo < n; lo += 2 * w) {
            const std::size_t mid = std::min(lo + w, n), hi = std::min(lo + 2 * w, n);
            util::merge_segments(pool, v.data() + lo, mid - lo, v.data() + mid, hi - mid,
                                 tmp.data() + lo, less, util::merge_parts(hi - lo, pool));
        }
        v.swap(tmp);
    }
    return v;
}

/// sim.launch_ns_per_item, sim.cpu_level_ns_per_task and pool.claim_ns:
/// charge-only Device::launch / CpuUnit::run_level calls and empty-body
/// parallel_for batches at the recorded widths.
void sim_pool_probes(pb::Tracer& t, Layers& m, util::ThreadPool* pool, const sim::HpuParams& hw,
                     const std::vector<trace::TraceSession>& sessions) {
    Widths w;
    for (const auto& s : sessions) {
        const Widths sw = widths_of(s);
        w.gpu.insert(w.gpu.end(), sw.gpu.begin(), sw.gpu.end());
        w.cpu.insert(w.cpu.end(), sw.cpu.begin(), sw.cpu.end());
    }
    double items = 0.0, tasks = 0.0;
    {
        pb::Scope s(&t, "sim.launch_replay");
        sim::Device dev(hw.gpu, pool);
        for (const std::uint64_t n : w.gpu) {
            dev.launch(n, [](sim::WorkItem& wi) { wi.charge_compute(1); });
            items += static_cast<double>(n);
        }
    }
    {
        pb::Scope s(&t, "sim.cpu_level_replay");
        sim::CpuUnit cpu(hw.cpu, pool);
        for (const std::uint64_t n : w.cpu) {
            cpu.run_level(n, [](std::uint64_t, sim::OpCounter& ops) { ops.charge_compute(1); });
            tasks += static_cast<double>(n);
        }
    }
    m["sim.launch_ns_per_item"] = *span_median_s(t, "sim.launch_replay") * 1e9 / items;
    m["sim.cpu_level_ns_per_task"] = *span_median_s(t, "sim.cpu_level_replay") * 1e9 / tasks;

    // The batches the pool served: one per CPU level, one per device wave.
    std::vector<std::size_t> batches(w.cpu.begin(), w.cpu.end());
    for (const std::uint64_t n : w.gpu) {
        for (std::uint64_t at = 0; at < n; at += hw.gpu.g) {
            batches.push_back(static_cast<std::size_t>(std::min<std::uint64_t>(hw.gpu.g, n - at)));
        }
    }
    pool->reset_telemetry();
    {
        pb::Scope s(&t, "pool.claim_replay");
        for (const std::size_t n : batches) pool->parallel_for(n, [](std::size_t) {});
    }
    std::uint64_t chunks = 0;
    for (const auto& pw : pool->telemetry().per_worker) chunks += pw.chunks;
    m["pool.claim_ns"] = *span_median_s(t, "pool.claim_replay") * 1e9 /
                         static_cast<double>(std::max<std::uint64_t>(chunks, 1));
}

// ---------------------------------------------------------------- msort

class Msort final : public Workload {
public:
    static constexpr std::uint64_t kLg = 22;
    static constexpr std::size_t kN = std::size_t{1} << kLg;

    /// The seed draws the keys; job k sorts key class k mod 3, so every
    /// run sees the same mix of classes whatever its seed.
    explicit Msort(std::uint64_t seed) : hw_(platforms::hpu1()) {
        util::Rng rng(seed);
        for (int c = 0; c < 3; ++c) {
            inputs_[c] = pb::make_keys(rng, kN, static_cast<pb::KeyClass>(c));
            refs_[c] = inputs_[c];
            std::sort(refs_[c].begin(), refs_[c].end());
        }
        work_.resize(kN);
        const model::AdvancedModel am(hw_, alg_.recurrence(), static_cast<double>(kN));
        opt_ = am.optimize();
        plan_ = plan_from(opt_, kLg);
    }

    std::string describe() const override {
        std::ostringstream os;
        os << "MergesortCoalesced<int32> n=2^" << kLg
           << ", cycle of 3 key classes (uniform, nearly-sorted, 8-distinct), HPU1, six "
           << "executors per job, alpha=" << plan_.alpha
           << " y=" << plan_.y << " K=" << kChunks;
        return os.str();
    }
    std::size_t cycle() const override { return 3; }

    JobResult job(std::size_t k, const JobCtx& ctx) override {
        return functional_job(alg_, inputs_[k % 3], work_, hw_, plan_, opt_.total_time, ctx,
                              [&](std::span<const std::int32_t> out) {
                                  return pb::check_sorted(out, refs_[k % 3]);
                              });
    }

    void reference(std::size_t k) override {
        std::vector<std::int32_t> v = inputs_[k % 3];
        std::sort(v.begin(), v.end());
        if (v != refs_[k % 3]) throw util::HpuError("std::sort reference is not deterministic");
    }

    void probes(pb::Tracer& t, Layers& m, util::ThreadPool* pool,
                const std::vector<trace::TraceSession>& sessions) override {
        // On the uniform keys, the paper's input class.
        const std::vector<std::int32_t>& in = inputs_[0];
        const auto half = static_cast<std::ptrdiff_t>(kN / 2);
        merge_probe(t, m, pool, std::vector<std::int32_t>(in.begin(), in.begin() + half),
                    std::vector<std::int32_t>(in.begin() + half, in.end()),
                    std::less<std::int32_t>());
        if (merge_levels_replay(t, pool, in, std::less<std::int32_t>()) != refs_[0]) {
            throw util::HpuError("merge level replay does not sort the input");
        }
        sim_pool_probes(t, m, pool, hw_, sessions);
        const model::Recurrence rec = alg_.recurrence();
        timed(t, "model.optimize", 3, [&] {
            model::AdvancedModel(hw_, rec, static_cast<double>(kN)).optimize();
        });
        timed(t, "model.pipelined", 3, [&] {
            model::PipelinedModel pm(hw_, rec, static_cast<double>(kN));
            pm.set_device_ops_multiplier(alg_.device_ops_multiplier(hw_.gpu));
            pm.predict_at(plan_.alpha, static_cast<double>(plan_.y), kChunks);
        });
        timed(t, "verify.hybrid", 3, [&] {
            sim::Hpu h(hw_);
            verify::RunShape shape;
            shape.kind = verify::RunShape::Kind::kAdvanced;
            shape.alpha = plan_.alpha;
            shape.y = plan_.y;
            verify::verify_hybrid_run(alg_, kN, h, shape);
        });
    }

    std::vector<AdvancedRun> advanced_runs(std::size_t) const override {
        return {{kAdvanced, hw_, alg_.recurrence(), alg_.device_ops_multiplier(hw_.gpu)}};
    }

private:
    algos::MergesortCoalesced<std::int32_t> alg_;
    sim::HpuParams hw_;
    std::array<std::vector<std::int32_t>, 3> inputs_, refs_;  ///< by pb::KeyClass
    std::vector<std::int32_t> work_;
    model::AdvancedPrediction opt_;
    Plan plan_;
};

// ------------------------------------------------------------ irregular

class Irregular final : public Workload {
public:
    static constexpr std::size_t kHullN = std::size_t{1} << 20;
    static constexpr std::size_t kPairN = std::size_t{1} << 18;
    static constexpr std::size_t kKaraN = std::size_t{1} << 14;  ///< per operand
    /// The job's inputs, in run order.
    enum Input : std::size_t { kSquare = 0, kPairs = 1, kKara = 2, kCircle = 3 };

    explicit Irregular(std::uint64_t seed) : hw_(platforms::hpu1()) {
        util::Rng rng(seed);
        square_ = pb::square_points(rng, kHullN, std::int64_t{1} << 30);
        circle_ = pb::circle_points(rng, kHullN, 1e9);
        pairs_ = pb::square_points(rng, kPairN, std::int64_t{1} << 29);
        kara_.resize(2 * kKaraN);
        for (auto& c : kara_) c = rng.uniform_int(-1000, 1000);
        hull_square_ = pb::monotone_chain_hull(square_);
        hull_circle_ = pb::monotone_chain_hull(circle_);
        pair_d2_ = pb::closest_pair_sweep(pairs_);
        product_ = product_of(kara_);
        hull_work_.resize(kHullN);
        pair_work_.resize(kPairN);
        kara_work_.resize(2 * kKaraN);
        for (std::size_t i = 0; i < 4; ++i) {
            predicted_[i] = model::AdvancedModel(hw_, recurrence(i), size(i)).optimize().total_time;
        }
    }

    std::string describe() const override {
        std::ostringstream os;
        os << "one job = quickhull on 2^20 uniform-square points (hull "
           << hull_square_.sorted.size()
           << "), closest-pair on 2^18 points, Karatsuba on 2^14 x 2^14 coefficients and "
           << "quickhull on 2^20 on-circle points (hull " << hull_circle_.sorted.size()
           << "), each through six executors; HPU1";
        return os.str();
    }
    std::size_t cycle() const override { return 1; }

    /// The mix sits inside one job, so every job costs the same and the
    /// job-time quantiles need no whole-cycle bookkeeping across jobs.
    JobResult job(std::size_t, const JobCtx& ctx) override {
        const Plan plan;  // the dynamic-tree engine re-splits every level itself
        const trace::CounterSnapshot c0 = trace::counters().snapshot();
        const auto hull_check = [&](const pb::HullRef& ref) {
            return [&](std::span<const pb::Pt> out) {
                return pb::check_hull(out, qh_.hull_count(), ref);
            };
        };
        JobResult r;
        r.absorb(functional_job(qh_, square_, hull_work_, hw_, plan, predicted_[kSquare], ctx,
                                hull_check(hull_square_)));
        r.absorb(functional_job(cp_, pairs_, pair_work_, hw_, plan, predicted_[kPairs], ctx,
                                [&](std::span<const pb::Pt> out) {
                                    return pb::check_closest(out, pair_d2_);
                                }));
        r.absorb(functional_job(ka_, kara_, kara_work_, hw_, plan, predicted_[kKara], ctx,
                                [&](std::span<const std::int64_t> out) {
                                    return pb::check_product(out, product_);
                                }));
        r.absorb(functional_job(qh_, circle_, hull_work_, hw_, plan, predicted_[kCircle], ctx,
                                hull_check(hull_circle_)));
        r.counters = trace::counters().snapshot() - c0;
        return r;
    }

    void reference(std::size_t) override {
        const bool same = pb::monotone_chain_hull(square_).sorted == hull_square_.sorted &&
                          pb::closest_pair_sweep(pairs_) == pair_d2_ &&
                          product_of(kara_) == product_ &&
                          pb::monotone_chain_hull(circle_).sorted == hull_circle_.sorted;
        if (!same) throw util::HpuError("reference is not deterministic");
    }

    void probes(pb::Tracer& t, Layers& m, util::ThreadPool* pool,
                const std::vector<trace::TraceSession>& sessions) override {
        // The merge kernel's only irregular call site: closest pair's y-merge.
        const auto yless = [](const pb::Pt& p, const pb::Pt& q) {
            return p.y != q.y ? p.y < q.y : p.x < q.x;
        };
        const auto half = static_cast<std::ptrdiff_t>(kPairN / 2);
        merge_probe(t, m, pool, std::vector<pb::Pt>(pairs_.begin(), pairs_.begin() + half),
                    std::vector<pb::Pt>(pairs_.begin() + half, pairs_.end()), yless);
        std::vector<pb::Pt> by_y = pairs_;
        std::sort(by_y.begin(), by_y.end(), yless);
        if (merge_levels_replay(t, pool, pairs_, yless) != by_y) {
            throw util::HpuError("merge level replay does not sort the points");
        }
        sim_pool_probes(t, m, pool, hw_, sessions);
        for (std::size_t i = 0; i < 4; ++i) {
            const model::Recurrence rec = recurrence(i);
            timed(t, "model.optimize", 1,
                  [&] { model::AdvancedModel(hw_, rec, size(i)).optimize(); });
            timed(t, "model.pipelined", 1, [&] {
                model::PipelinedModel pm(hw_, rec, size(i));
                pm.set_device_ops_multiplier(multiplier(i));
                pm.predict_at(Plan{}.alpha, static_cast<double>(Plan{}.y), kChunks);
            });
        }
        observed_split_probe(t, sessions);
    }

    std::vector<AdvancedRun> advanced_runs(std::size_t) const override {
        // Six runs per input, inputs in the order job() runs them.
        std::vector<AdvancedRun> runs;
        for (const Input i : {kSquare, kPairs, kKara, kCircle}) {
            runs.push_back({6 * i + kAdvanced, hw_, recurrence(i), multiplier(i)});
        }
        return runs;
    }

private:
    static std::vector<std::int64_t> product_of(const std::vector<std::int64_t>& lr) {
        const std::span<const std::int64_t> all(lr);
        return pb::schoolbook_product(all.first(kKaraN), all.subspan(kKaraN));
    }

    double size(std::size_t i) const {
        return static_cast<double>(i == kKara ? 2 * kKaraN : i == kPairs ? kPairN : kHullN);
    }
    model::Recurrence recurrence(std::size_t i) const {
        return i == kPairs ? cp_.recurrence() : i == kKara ? ka_.recurrence() : qh_.recurrence();
    }
    double multiplier(std::size_t i) const {
        return i == kPairs  ? cp_.device_ops_multiplier(hw_.gpu)
               : i == kKara ? ka_.device_ops_multiplier(hw_.gpu)
                            : qh_.device_ops_multiplier(hw_.gpu);
    }

    /// model.observed_split_us: split_observed_level on every level the
    /// advanced executor recorded, at the level's observed width (CPU and
    /// GPU parts summed), mean cost and mean extent words.
    void observed_split_probe(pb::Tracer& t, const std::vector<trace::TraceSession>& sessions) {
        for (const trace::TraceSession& s : sessions) {
            for (const AdvancedRun& run : advanced_runs(0)) {
                const trace::SpanId root = run_root(s, run.root);
                std::map<std::uint64_t, std::array<double, 3>> levels;  // tasks, work, words
                for (const trace::Span& sp : s.spans()) {
                    // The expand sweep's levels: the widths split decisions see.
                    if (sp.kind != trace::SpanKind::kLevel || sp.parent == trace::kNoSpan) {
                        continue;
                    }
                    const trace::Span& phase = s.span(sp.parent);
                    if (phase.parent != root || !phase.label.ends_with("/expand")) continue;
                    auto& l = levels[sp.attrs.level];
                    l[0] += static_cast<double>(sp.attrs.tasks);
                    l[1] += sp.attrs.work;
                    l[2] += static_cast<double>(sp.attrs.extent_words);
                }
                for (const auto& [lvl, l] : levels) {
                    const auto width = static_cast<std::size_t>(l[0]);
                    if (width == 0) continue;
                    const std::vector<model::ObservedTask> tasks(
                        width, model::ObservedTask{std::max(1.0, l[1] / l[0]),
                                                   static_cast<std::uint64_t>(l[2] / l[0])});
                    timed(t, "model.observed_split", 3, [&] {
                        model::split_observed_level(hw_, tasks, run.device_multiplier, true);
                    });
                }
            }
        }
    }

    algos::Quickhull qh_;
    algos::ClosestPair cp_;
    algos::KaratsubaArray ka_;
    sim::HpuParams hw_;
    std::vector<pb::Pt> square_, circle_, pairs_;
    pb::HullRef hull_square_, hull_circle_;
    std::vector<pb::Pt> hull_work_, pair_work_;
    std::vector<std::int64_t> kara_, product_, kara_work_;
    std::uint64_t pair_d2_ = 0;
    std::array<double, 4> predicted_{};
};

// ----------------------------------------------------------------- plan

class PlanSweep final : public Workload {
public:
    static constexpr std::uint64_t kLgMin = 16, kLgMax = 26;

    /// Plan jobs take no input data, so the seed has nothing to draw: every
    /// run sweeps the same points in the same order.
    PlanSweep()
        : dummy_(static_cast<std::int32_t*>(std::calloc(std::size_t{1} << kLgMax,
                                                        sizeof(std::int32_t)))) {
        if (!dummy_) throw std::bad_alloc();
        for (const auto& spec : platforms::all()) {
            for (std::uint64_t lg = kLgMin; lg <= kLgMax; lg += 2) {
                Point p;
                p.hw = spec.params;
                p.lg = lg;
                points_.push_back(p);
            }
        }
        // References: the same three schedules with trace, verify and
        // observe off (they must not move a tick), plus the sequential
        // baseline for virtual_speedup.
        for (Point& p : points_) {
            p.plan = plan_from(model::AdvancedModel(p.hw, alg_.recurrence(), p.n()).optimize(),
                               p.lg);
            const core::ExecOptions o = base_options(false);
            for (int e = 3; e < 6; ++e) {
                sim::Hpu h(p.hw);
                p.ref_totals[static_cast<std::size_t>(e - 3)] =
                    run_executor(e, h, alg_, data(p), o, p.plan).total;
            }
            sim::Hpu h(p.hw);
            p.seq_ticks = run_executor(0, h, alg_, data(p), o, p.plan).total;
        }
    }

    std::string describe() const override {
        return "MergesortCoalesced<int32> analytic, {HPU1, HPU2} x lg n in {16..26 step 2} "
               "(12 points per cycle), no pool; optimize + 3 traced/verified/observed "
               "schedules + what_if per job";
    }
    std::size_t cycle() const override { return points_.size(); }

    JobResult job(std::size_t k, const JobCtx& ctx) override {
        const Point& p = points_[k % points_.size()];
        JobResult r;
        trace::TraceSession local;
        trace::TraceSession& session = ctx.session != nullptr ? *ctx.session : local;
        core::ExecOptions o = base_options(false);
        o.trace = &session;
        o.verify = true;
        o.observe = true;
        o.profile = ctx.session != nullptr;
        std::array<core::ExecReport, 3> reps;
        std::vector<obs::WhatIfReport> whatifs;
        const trace::CounterSnapshot c0 = trace::counters().snapshot();
        const std::uint64_t t0 = util::now_ns();
        model::AdvancedPrediction opt;
        try {
            {
                pb::Scope s(ctx.tracer, "model.optimize", ctx.id);
                opt = model::AdvancedModel(p.hw, alg_.recurrence(), p.n()).optimize();
            }
            const Plan plan = plan_from(opt, p.lg);
            if (plan.alpha != p.plan.alpha || plan.y != p.plan.y) {
                r.fail("optimize moved between set-up and job");
            }
            for (int e = 3; e < 6; ++e) {
                pb::Scope s(ctx.tracer, std::string("core.") + kExecutors[e], ctx.id);
                sim::Hpu h(p.hw);
                reps[static_cast<std::size_t>(e - 3)] = run_executor(e, h, alg_, data(p), o, plan);
            }
            pb::Scope s(ctx.tracer, "obs.whatif", ctx.id);
            for (const trace::SpanId root : session.children(trace::kNoSpan)) {
                whatifs.push_back(obs::what_if(session, root, p.hw));
            }
        } catch (const std::exception& ex) {
            r.fail(std::string("plan point threw: ") + ex.what());
        }
        r.wall_s = static_cast<double>(util::now_ns() - t0) * 1e-9;
        r.counters = trace::counters().snapshot() - c0;
        if (!r.ok) return r;

        pb::Scope s(ctx.tracer, "algos.check", ctx.id);
        for (std::size_t i = 0; i < 3; ++i) {
            if (reps[i].total != p.ref_totals[i]) {
                r.fail(std::string(kExecutors[i + 3]) + " total moved under trace/verify/observe");
            } else if (!reps[i].verify.certified()) {
                r.fail(std::string(kExecutors[i + 3]) +
                       " not certified: " + reps[i].verify.summary());
            } else if (!reps[i].obs.attempted) {
                r.fail(std::string(kExecutors[i + 3]) + " observation did not run");
            }
        }
        if (whatifs.size() != 3) r.fail("what_if did not see three runs");
        for (std::size_t i = 0; r.ok && i < whatifs.size(); ++i) {
            const obs::WhatIfReport& w = whatifs[i];
            const double rec = reps[i].total;
            if (!w.attempted || std::abs(w.baseline - rec) > 1e-9 * rec) {
                r.fail("what_if baseline differs from the recorded makespan");
            }
            for (const obs::WhatIfCurve& c : w.curves) {
                for (const obs::WhatIfPoint& pt : c.points) {
                    if (pt.factor == 1.0 && pt.predicted != w.baseline) {
                        r.fail("what_if factor-1 replay differs from its baseline");
                    }
                }
            }
        }
        r.seq_ticks = p.seq_ticks;
        r.best_hybrid_ticks = std::min({reps[0].total, reps[1].total, reps[2].total});
        r.predicted_ticks = opt.total_time;
        r.advanced_ticks = reps[1].total;
        return r;
    }

    /// The floor for a plan job's simulation work: the same three
    /// schedules, analytic, with trace, verify and observe off.
    void reference(std::size_t k) override {
        const Point& p = points_[k % points_.size()];
        const core::ExecOptions o = base_options(false);
        for (int e = 3; e < 6; ++e) {
            sim::Hpu h(p.hw);
            if (run_executor(e, h, alg_, data(p), o, p.plan).total !=
                p.ref_totals[static_cast<std::size_t>(e - 3)]) {
                throw util::HpuError("untraced reference schedule is not deterministic");
            }
        }
    }

    void probes(pb::Tracer& t, Layers&, util::ThreadPool*,
                const std::vector<trace::TraceSession>&) override {
        for (const Point& p : points_) {
            const Plan& plan = p.plan;
            timed(t, "model.pipelined", 1, [&] {
                model::PipelinedModel pm(p.hw, alg_.recurrence(), p.n());
                pm.set_device_ops_multiplier(alg_.device_ops_multiplier(p.hw.gpu));
                pm.predict_at(plan.alpha, static_cast<double>(plan.y), kChunks);
            });
            timed(t, "verify.hybrid", 1, [&] {
                sim::Hpu h(p.hw);
                verify::RunShape shape;
                shape.kind = verify::RunShape::Kind::kAdvanced;
                shape.alpha = plan.alpha;
                shape.y = plan.y;
                verify::verify_hybrid_run(alg_, std::uint64_t{1} << p.lg, h, shape);
            });
        }
    }

    std::vector<AdvancedRun> advanced_runs(std::size_t k) const override {
        const sim::HpuParams& hw = points_[k % points_.size()].hw;
        // A plan job records basic, advanced, pipelined: advanced is run 1.
        return {{1, hw, alg_.recurrence(), alg_.device_ops_multiplier(hw.gpu)}};
    }

private:
    struct Point {
        sim::HpuParams hw;
        std::uint64_t lg = 0;
        Plan plan;  ///< the optimized (α, y), fixed at set-up
        std::array<double, 3> ref_totals{};
        double seq_ticks = 0.0;
        double n() const { return static_cast<double>(std::uint64_t{1} << lg); }
    };
    struct FreeDeleter {
        void operator()(std::int32_t* p) const { std::free(p); }
    };

    /// Analytic runs read only the span's size; the calloc'd buffer behind
    /// it stays untouched, so the 2^26-element view costs no resident memory.
    std::span<std::int32_t> data(const Point& p) const {
        return {dummy_.get(), std::size_t{1} << p.lg};
    }

    algos::MergesortCoalesced<std::int32_t> alg_;
    std::unique_ptr<std::int32_t, FreeDeleter> dummy_;
    std::vector<Point> points_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "msort") return std::make_unique<Msort>(seed);
    if (name == "irregular") return std::make_unique<Irregular>(seed);
    if (name == "plan") return std::make_unique<PlanSweep>();
    throw util::HpuError("unknown workload '" + name + "' (msort, irregular, plan)");
}

// ------------------------------------------------------------ main loop

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Every per-layer metric of the traced run, with its unit. A metric that
/// does not apply to a workload (no pool on plan, no dynamic tree on msort)
/// is reported as 0 and printed as n/a.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"core.sequential_s", "s"},         {"core.multicore_s", "s"},
    {"core.gpu_s", "s"},                {"core.basic_s", "s"},
    {"core.advanced_s", "s"},           {"core.pipelined_s", "s"},
    {"core.unattributed_share", "ratio"}, {"core.tasks_spawned", "count"},
    {"algos.reference_s", "s"},         {"algos.check_s", "s"},
    {"merge.serial_gbps", "GB/s"},      {"merge.segmented_gbps", "GB/s"},
    {"merge.levels_replay_s", "s"},     {"sim.kernel_launches", "count"},
    {"sim.waves", "count"},             {"sim.work_items", "count"},
    {"sim.cpu_levels", "count"},        {"sim.words_transferred", "count"},
    {"sim.launch_ns_per_item", "ns"},   {"sim.cpu_level_ns_per_task", "ns"},
    {"pool.busy_share", "ratio"},       {"pool.idle_s", "s"},
    {"pool.batches", "count"},          {"pool.chunks", "count"},
    {"pool.submit_p99_us", "us"},       {"pool.claim_ns", "ns"},
    {"pool.speedup_vs_inline", "x"},    {"model.optimize_ms", "ms"},
    {"model.pipelined_ms", "ms"},       {"model.observed_split_us", "us"},
    {"verify.hybrid_ms", "ms"},         {"trace.spans", "count"},
    {"trace.export_ms", "ms"},          {"trace.reimport_ms", "ms"},
    {"trace.overhead_s", "s"},          {"obs.observe_ms", "ms"},
    {"obs.critpath_ms", "ms"},          {"obs.whatif_ms", "ms"},
    {"bench.unattributed_share", "ratio"},
};

/// Run bookkeeping: attempted/failed counts and the first failure.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_error;

    void add(const JobResult& r, std::size_t k) {
        ++attempted;
        if (r.ok) return;
        ++failed;
        if (first_error.empty()) first_error = "job " + std::to_string(k) + ": " + r.error;
    }
};

/// The virtual results of a job must repeat for the same input; a job that
/// drifts from the first run of its input counts as failed.
void check_repeat(JobResult& r, const std::vector<JobResult>& first, std::size_t k) {
    const JobResult& f = first[k % first.size()];
    if (r.ok && !r.same_virtual(f)) {
        r.fail("virtual results differ from the first run of this input");
    }
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
                  << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
                  << "\"}";
    }
    std::cout << "}}" << std::endl;
}

/// Host context every result needs; printed as one JSON line.
void print_host(const util::Cli& cli, const std::string& workload, std::uint64_t seed,
                std::size_t workers) {
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    const auto cache = [](int name) { return static_cast<long long>(sysconf(name)); };
    std::cout << "host: {\"nproc\": " << std::thread::hardware_concurrency()
              << ", \"l1d_bytes\": " << cache(_SC_LEVEL1_DCACHE_SIZE)
              << ", \"l2_bytes\": " << cache(_SC_LEVEL2_CACHE_SIZE)
              << ", \"l3_bytes\": " << cache(_SC_LEVEL3_CACHE_SIZE)
              << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
              << PERFBENCH_BUILD_TYPE << "\", \"ndebug\": " << (ndebug ? "true" : "false")
              << ", \"workers\": " << workers << ", \"git_sha\": \""
              << cli.get("git-sha", "unknown") << "\", \"workload\": \"" << workload
              << "\", \"seed\": " << seed << "}\n";
    if (!ndebug) std::cout << "WARNING: built without NDEBUG; timings are not comparable\n";
}

/// The workload plus the pool it runs on, built and warmed up by one job.
struct Setup {
    std::unique_ptr<util::ThreadPool> pool;
    std::unique_ptr<Workload> wl;
};

Setup set_up(const std::string& name, std::uint64_t seed, std::size_t workers, Tally& tally) {
    Setup s;
    if (name != "plan") s.pool = std::make_unique<util::ThreadPool>(workers);
    s.wl = make_workload(name, seed);
    JobCtx warm;
    warm.pool = s.pool.get();
    tally.add(s.wl->job(0, warm), 0);  // untimed warm-up job
    return s;
}

void report_timings(std::vector<Metric>& out, const std::vector<double>& job_s) {
    const double q = pb::tail_quantile(job_s.size());
    double total = 0.0;
    for (const double s : job_s) total += s;
    const double p50 = pb::median(job_s);
    out.push_back({"job_s_p50", p50, "s"});
    out.push_back({"job_s_p90", q > 0.5 ? pb::rank_quantile(job_s, q) : p50, "s"});
    out.push_back({"jobs_per_s", static_cast<double>(job_s.size()) / total, "1/s"});
    std::cout << "job times (s):";
    for (const double s : job_s) std::cout << " " << json_number(s);
    std::cout << "\njobs: " << job_s.size() << " samples; job_s_p90 is the p"
              << json_number(100.0 * q) << " (" << pb::samples_beyond(job_s.size(), q)
              << " samples beyond it)\n";
}

void report_virtual(std::vector<Metric>& out, const std::vector<JobResult>& first) {
    std::vector<double> speedups;
    double drift = 0.0;
    for (const JobResult& r : first) {
        if (!r.ok) continue;
        speedups.push_back(r.speedup());
        drift += r.drift();
    }
    out.push_back({"virtual_speedup", speedups.empty() ? 0.0 : pb::geomean(speedups), "x"});
    out.push_back({"model_drift_pct", 100.0 * drift / static_cast<double>(first.size()), "%"});
}

/// Untraced run: set-ups, then the closed loop for `seconds`, whole cycles.
int run_end_to_end(const util::Cli& cli, const std::string& name, std::uint64_t seed,
                   double seconds, std::size_t workers) {
    Tally tally;
    std::vector<double> setup_s;
    Setup st;
    for (int i = 0; i < bench::repeats(cli); ++i) {
        st = Setup{};  // release the previous set-up before building the next
        const util::Stopwatch sw;
        st = set_up(name, seed, workers, tally);
        setup_s.push_back(sw.seconds());
    }
    std::cout << "workload " << name << ": " << st.wl->describe() << "\n";
    JobCtx ctx;
    ctx.pool = st.pool.get();
    std::vector<double> job_s;
    std::vector<JobResult> first;
    const util::Stopwatch window;
    for (std::size_t k = 0; window.seconds() < seconds || k % st.wl->cycle() != 0; ++k) {
        ctx.id = static_cast<std::int64_t>(k);
        JobResult r = st.wl->job(k, ctx);
        if (k < st.wl->cycle()) {
            first.push_back(r);
        } else {
            check_repeat(r, first, k);
        }
        tally.add(r, k);
        job_s.push_back(r.wall_s);
    }
    std::vector<Metric> out;
    report_timings(out, job_s);
    for (std::size_t i = 0; st.wl->cycle() > 1 && i < st.wl->cycle(); ++i) {
        std::vector<double> v;
        for (std::size_t k = i; k < job_s.size(); k += st.wl->cycle()) v.push_back(job_s[k]);
        std::cout << "  input " << i << ": median job " << json_number(pb::median(v))
                  << " s over " << v.size() << " jobs\n";
    }
    report_virtual(out, first);
    out.push_back({"setup_s", pb::median(setup_s), "s"});
    out.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    const double fr = pb::failed_ratio(tally.failed, tally.attempted);
    std::cout << "setup_s is the median of " << setup_s.size() << " set-ups\n";
    std::cout << "failed_ratio " << json_number(fr) << " (" << tally.failed << " of "
              << tally.attempted << " jobs)\n";
    if (!tally.first_error.empty()) std::cout << "first failure: " << tally.first_error << "\n";
    for (const Metric& m : out) {
        std::cout << "  " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
    }
    print_result(tally.failed == 0, tally, out);
    return tally.failed == 0 ? 0 : 1;
}

/// Traced run: one traced cycle for the deterministic counts, then untraced
/// and traced jobs alternate over the window, then one inline job and the
/// replay probes.
int run_traced(const util::Cli& cli, const std::string& name, std::uint64_t seed,
               double seconds, std::size_t workers) {
    Tally tally;
    Setup st = set_up(name, seed, workers, tally);
    Workload& wl = *st.wl;
    util::ThreadPool* pool = st.pool.get();
    std::cout << "workload " << name << ": " << wl.describe() << " (traced run)\n";
    pb::Tracer tracer;
    Layers m;

    std::vector<double> untraced_s, traced_s, unattributed, busy, idle, batches, chunks, p99;
    std::map<std::size_t, std::vector<double>> untraced_by_input;
    std::vector<JobResult> first;
    const auto traced_job = [&](std::size_t k, trace::TraceSession& session) {
        JobCtx ctx{pool, &tracer, &session, static_cast<std::int64_t>(k)};
        if (pool != nullptr) pool->reset_telemetry();
        JobResult r;
        {
            pb::Scope js(&tracer, "job", ctx.id);
            r = wl.job(k, ctx);
            const std::optional<util::PoolTelemetry> tel =
                pool != nullptr ? std::optional(pool->telemetry()) : std::nullopt;
            const metrics::ProfileReport prof =
                metrics::derive_profile(session, tel ? &*tel : nullptr);
            double wall = 0.0, attributed = 0.0;
            for (const auto& e : prof.executors) {
                wall += static_cast<double>(e.wall_ns);
                attributed += static_cast<double>(e.attributed_wall_ns);
            }
            if (wall > 0.0) unattributed.push_back(1.0 - attributed / wall);
            if (tel && tel->workers > 0 && tel->window_ns > 0) {
                busy.push_back(static_cast<double>(tel->worker_busy_ns()) /
                               (static_cast<double>(tel->workers) *
                                static_cast<double>(tel->window_ns)));
                idle.push_back(static_cast<double>(tel->worker_idle_ns()) * 1e-9);
                batches.push_back(static_cast<double>(tel->batches));
                double c = 0.0;
                for (const auto& pw : tel->per_worker) c += static_cast<double>(pw.chunks);
                chunks.push_back(c);
                p99.push_back(prof.pool.submit_p99_ns * 1e-3);
            }
            pb::Scope rs(&tracer, "algos.reference", ctx.id);
            wl.reference(k);
        }
        if (k >= wl.cycle()) check_repeat(r, first, k);
        tally.add(r, k);
        return r;
    };

    // First traced cycle: deterministic counts, and the sessions the probes
    // replay.
    std::vector<trace::TraceSession> sessions(wl.cycle());
    for (std::size_t k = 0; k < wl.cycle(); ++k) first.push_back(traced_job(k, sessions[k]));

    const util::Stopwatch window;
    for (std::size_t k = 0; window.seconds() < seconds || k % wl.cycle() != 0; ++k) {
        JobCtx ctx{pool, nullptr, nullptr, static_cast<std::int64_t>(k)};
        JobResult u = wl.job(k, ctx);
        check_repeat(u, first, k);
        tally.add(u, k);
        untraced_s.push_back(u.wall_s);
        untraced_by_input[k % wl.cycle()].push_back(u.wall_s);
        trace::TraceSession session;
        traced_s.push_back(traced_job(k + wl.cycle(), session).wall_s);
    }

    if (pool != nullptr) {
        // The plain single-thread baseline: job 0 with no pool workers.
        util::ThreadPool inline_pool(0);
        JobCtx ctx{&inline_pool, nullptr, nullptr, -1};
        pb::Scope s(&tracer, "pool.inline_job");
        JobResult r = wl.job(0, ctx);
        tally.add(r, 0);
        m["pool.speedup_vs_inline"] = r.wall_s / pb::median(untraced_by_input[0]);
    }

    // Probes on the first cycle's sessions: trace export and re-import,
    // observation of the advanced run, then the workload's own replays.
    for (std::size_t k = 0; k < sessions.size(); ++k) {
        const trace::TraceSession& s = sessions[k];
        const std::string path =
            bench::out_path(cli, "perfbench_trace_" + name + "_" + std::to_string(k) + ".json");
        bool wrote = false;
        timed(tracer, "trace.export", 1, [&] { wrote = trace::write_chrome_file(s, path); });
        obs::LoadedTrace back;
        timed(tracer, "trace.reimport", 1, [&] { back = obs::load_chrome_trace(path); });
        if (!wrote || !back.ok() || back.session.spans().size() != s.spans().size()) {
            JobResult bad;
            bad.fail("trace export/re-import round trip failed for " + path);
            tally.add(bad, k);
        }
        for (const Workload::AdvancedRun& run : wl.advanced_runs(k)) {
            const trace::SpanId root = run_root(s, run.root);
            obs::ObserveContext octx;
            octx.hw = run.hw;
            octx.rec = run.rec;
            octx.device_ops_multiplier = run.device_multiplier;
            timed(tracer, "obs.observe", 1, [&] { obs::observe(s, root, octx); });
            timed(tracer, "obs.critpath", 1, [&] { obs::extract_critical_path(s, root); });
            // A plan job runs what_if itself, inside the job.
            if (name != "plan") {
                timed(tracer, "obs.whatif", 1, [&] { obs::what_if(s, root, run.hw); });
            }
        }
    }
    wl.probes(tracer, m, pool, sessions);

    // Per-layer metrics from the spans, the profile and the counters.
    // Median span durations; a span the workload never records leaves its
    // metric unset (n/a).
    const auto from_span = [&](const std::string& metric, const std::string& span,
                               double scale) {
        if (const auto v = span_median_s(tracer, span)) m[metric] = *v * scale;
    };
    const auto from_samples = [&](const std::string& metric, const std::vector<double>& v) {
        if (!v.empty()) m[metric] = pb::median(v);
    };
    for (const char* e : kExecutors) {
        from_span(std::string("core.") + e + "_s", std::string("core.") + e, 1.0);
    }
    from_samples("core.unattributed_share", unattributed);
    from_span("algos.reference_s", "algos.reference", 1.0);
    from_span("algos.check_s", "algos.check", 1.0);
    from_span("model.optimize_ms", "model.optimize", 1e3);
    from_span("model.pipelined_ms", "model.pipelined", 1e3);
    from_span("model.observed_split_us", "model.observed_split", 1e6);
    from_span("verify.hybrid_ms", "verify.hybrid", 1e3);
    from_span("trace.export_ms", "trace.export", 1e3);
    from_span("trace.reimport_ms", "trace.reimport", 1e3);
    m["trace.overhead_s"] = pb::median(traced_s) - pb::median(untraced_s);
    from_span("obs.observe_ms", "obs.observe", 1e3);
    from_span("obs.critpath_ms", "obs.critpath", 1e3);
    from_span("obs.whatif_ms", "obs.whatif", 1e3);
    from_span("merge.levels_replay_s", "merge.levels_replay", 1.0);
    from_samples("pool.busy_share", busy);
    from_samples("pool.idle_s", idle);
    from_samples("pool.batches", batches);
    from_samples("pool.chunks", chunks);
    from_samples("pool.submit_p99_us", p99);
    // Deterministic counts: means over the first traced cycle.
    const auto mean_count = [&](const std::string& metric, auto count) {
        double sum = 0.0;
        for (std::size_t k = 0; k < first.size(); ++k) sum += static_cast<double>(count(k));
        if (sum > 0.0) m[metric] = sum / static_cast<double>(first.size());
    };
    mean_count("core.tasks_spawned", [&](std::size_t k) { return first[k].tasks_spawned; });
    mean_count("sim.kernel_launches",
               [&](std::size_t k) { return first[k].counters.kernel_launches; });
    mean_count("sim.waves", [&](std::size_t k) { return first[k].counters.waves_launched; });
    mean_count("sim.work_items", [&](std::size_t k) { return first[k].counters.work_items; });
    mean_count("sim.cpu_levels", [&](std::size_t k) { return first[k].counters.cpu_levels; });
    mean_count("sim.words_transferred",
               [&](std::size_t k) { return first[k].counters.words_transferred; });
    mean_count("trace.spans", [&](std::size_t k) { return sessions[k].spans().size(); });

    // Self time per layer over the job spans: what the wrapped calls
    // account for, and the job's own unattributed remainder.
    const std::vector<std::uint64_t> self = tracer.self_times();
    std::map<std::string, double> layer_self;
    double job_total = 0.0;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
        const pb::BenchSpan& s = tracer.spans()[i];
        if (s.job < 0) continue;
        const std::string layer = s.name.substr(0, s.name.find('.'));
        layer_self[layer] += static_cast<double>(self[i]) * 1e-9;
        if (s.name == "job") job_total += static_cast<double>(s.duration_ns()) * 1e-9;
    }
    m["bench.unattributed_share"] = job_total > 0.0 ? layer_self["job"] / job_total : 0.0;
    std::cout << "self time over " << traced_s.size() + first.size() << " traced jobs ("
              << json_number(job_total) << " s):\n";
    for (const auto& [layer, sec] : layer_self) {
        std::cout << "  " << (layer == "job" ? "unattributed" : layer) << " "
                  << json_number(sec) << " s (" << json_number(100.0 * sec / job_total)
                  << "%)\n";
    }
    std::cout << "untraced " << untraced_s.size() << " / traced " << traced_s.size()
              << " jobs in the window\n";

    const std::string spans_path = bench::out_path(cli, "perfbench_spans_" + name + ".json");
    std::ofstream os(spans_path);
    tracer.write_json(os);
    std::cout << "spans: " << tracer.spans().size() << " -> " << spans_path << "\n";

    std::vector<Metric> out;
    for (const auto& [n, unit] : kLayerMetrics) {
        const auto it = m.find(n);
        out.push_back({n, it == m.end() ? 0.0 : it->second, unit});
        std::cout << "  " << n << " = "
                  << (it == m.end() ? "n/a (reported as 0)" : json_number(it->second)) << " "
                  << unit << "\n";
    }
    if (!tally.first_error.empty()) std::cout << "first failure: " << tally.first_error << "\n";
    print_result(tally.failed == 0, tally, out);
    return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const util::Cli cli(argc, argv);
    const std::string name = cli.get("workload", "");
    const std::uint64_t seed = bench::input_seed(cli, 1);
    const double seconds = cli.get_double("seconds", 10.0);
    const std::size_t workers = std::max<std::size_t>(1, bench::worker_threads(cli));
    print_host(cli, name, seed, workers);
    try {
        return cli.get_bool("trace", false) ? run_traced(cli, name, seed, seconds, workers)
                                            : run_end_to_end(cli, name, seed, seconds, workers);
    } catch (const std::exception& ex) {
        std::cerr << "hpubench: " << ex.what() << "\n";
        return 2;
    }
}
