// The single launch primitive every executor drives, and the run context
// threaded through it.
//
// detail::launch runs one level (or leaf sweep) of `tasks` task bodies on
// the CPU unit or the device — or, with no body, prices it analytically —
// and records the level's trace span. The regular plan walker
// (core/plan.hpp) and the dynamic-tree sweeps (core/irregular.hpp) both go
// through it, so a launch is run, priced and recorded in one place.
//
// This header also owns what every executor shares: ExecOptions and
// ExecReport, the validation context (which launches to race-check and
// how), the span context (where a span goes on the virtual clock), and the
// run/phase/transfer/hook span helpers.
//
// With ExecOptions::validate on (or HPU_VALIDATE set), every functional
// level additionally runs the hpu::analysis correctness passes — wave race
// detection, schedule-independence re-execution — a regular run checks the
// schedule it executed (verify::check_plan), and the findings are attached
// to ExecReport::analysis.
//
// With ExecOptions::trace set, every executor records a hierarchical span
// tree (run → phase → level → wave) into the given hpu::trace session.
// Tracing is strictly off the virtual-clock critical path, so attaching a
// session never changes any ExecReport tick (enforced by test).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/race.hpp"
#include "analysis/report.hpp"
#include "analysis/validate.hpp"
#include "core/labels.hpp"
#include "core/level_algorithm.hpp"
#include "obs/watchdog.hpp"
#include "sim/cpu_unit.hpp"
#include "sim/device.hpp"
#include "sim/params.hpp"
#include "trace/span.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/stopwatch.hpp"
#include "verify/conformance.hpp"
#include "verify/report.hpp"

namespace hpu::core {

/// HPU_MERGE_PATH environment default for ExecOptions::merge_path. Unlike
/// the validation flags this one defaults ON (it is a pure wall-clock
/// optimization); set HPU_MERGE_PATH=0 to disable.
inline bool env_merge_path_default() { return util::merge_path_env_default(); }

/// Execution knobs shared by all executors.
struct ExecOptions {
    /// Functional mode runs task bodies on real data (results verifiable);
    /// analytic mode skips data work and prices levels from the
    /// recurrence — instant, used by large parameter sweeps. Both modes
    /// produce the same virtual times for uniform-cost algorithms (tests
    /// enforce this).
    bool functional = true;
    /// Run the hpu::analysis correctness passes on every functional level
    /// (race detection, schedule-independence re-execution) and check the
    /// executed schedule of a regular run. Costly — re-executes kernels —
    /// so off unless requested here or via the HPU_VALIDATE environment
    /// variable. No effect on the virtual clock. Ignored in analytic mode
    /// (nothing executes).
    bool validate = analysis::env_validate_default();
    /// Span tracer sink (see trace/span.hpp); nullptr = tracing off. The
    /// session is not owned and may accumulate several runs. No effect on
    /// the virtual clock.
    trace::TraceSession* trace = nullptr;
    /// Stamp wall-clock (host) time onto the recorded trace spans: each
    /// functional level / leaf sweep / hook / transfer span, plus the run
    /// root, gets wall_start_ns / wall_ns filled in. Requires `trace`;
    /// no-op without it. The wall stamps feed metrics::derive_profile; the
    /// virtual-clock side of the spans and the ExecReport stay
    /// byte-identical with profiling on or off (enforced by test).
    bool profile = false;
    /// Run the hpu::verify static pass before executing: prove the declared
    /// footprints race-free and check the planned schedule's invariants.
    /// The certificate lands in ExecReport::verify; under `validate`,
    /// statically proven launches swap word-level race concretization for
    /// the cheaper footprint-conformance check. Never touches the virtual
    /// clock. Off unless requested here or via HPU_VERIFY.
    bool verify = verify::env_verify_default();
    /// Budget/caps for the runtime race detector and the conformance
    /// checker (see analysis::RaceOptions).
    analysis::RaceOptions race;
    /// Run the hpu::obs observation over the finished run's span subtree:
    /// (g, γ, λ, δ) re-fit vs the configured parameters, utilization
    /// derivation, and watchdog findings at the default thresholds,
    /// attached to ExecReport::obs (obs::observe takes other thresholds).
    /// Requires `trace`; no-op without it. Runs strictly after the last
    /// tick is computed and is read-only over the session, so the virtual
    /// clock, the trace, and every other ExecReport field are bit-identical
    /// with observe on or off (enforced by test).
    bool observe = false;
    /// Let functional task bodies split large merges into Merge Path
    /// segments across the host pool (DESIGN.md §15). Wall-clock only:
    /// ExecReports, traces, outputs, and analysis findings are
    /// bit-identical on or off (enforced by tests/merge_path_test.cpp).
    /// No effect in analytic mode or without a pool. Defaults from
    /// HPU_MERGE_PATH (on unless "0"/"off"/"false"/"no").
    bool merge_path = env_merge_path_default();
};

/// Where time went; every executor fills one of these.
struct ExecReport {
    sim::Ticks total = 0.0;
    sim::Ticks cpu_busy = 0.0;       ///< CPU-unit time (parallel phase for hybrids)
    sim::Ticks gpu_busy = 0.0;       ///< device kernel time
    sim::Ticks transfer = 0.0;       ///< link time
    sim::Ticks finish = 0.0;         ///< post-sync CPU wrap-up (advanced hybrid)
    std::uint64_t levels_cpu = 0;
    std::uint64_t levels_gpu = 0;
    double alpha_effective = 0.0;    ///< realized CPU work ratio (advanced hybrid)
    /// Transfer chunks actually pipelined (pipelined hybrid; 1 = the
    /// schedule degenerated to the advanced hybrid, 0 = other executors).
    std::uint64_t chunks = 0;
    /// Findings of the correctness passes (empty unless ExecOptions::
    /// validate was on).
    analysis::AnalysisReport analysis;
    /// Certificate of the static pass (attempted=false unless
    /// ExecOptions::verify was on).
    hpu::verify::VerifyReport verify;
    /// Observation over this run (attempted=false unless ExecOptions::
    /// observe was on and a trace session was attached).
    obs::ObsReport obs;
    /// Total tasks of the dynamic expand sweep, empty branches included
    /// (irregular algorithms only; stays 0 on every regular path, which
    /// keeps regular reports bit-identical to the pre-irregular build).
    std::uint64_t tasks_spawned = 0;
};

namespace detail {

template <typename T>
std::uint64_t level_count(const LevelAlgorithm<T>& alg, std::uint64_t n) {
    HPU_CHECK(alg.a() == alg.b(),
              "array executors require a == b (contiguous level tiling)");
    HPU_CHECK(n >= alg.base_size() * alg.b(), "input must contain at least one division");
    HPU_CHECK(alg.admissible(n), "input size not admissible for this algorithm");
    std::uint64_t L = 0, m = n;
    while (m > alg.base_size()) {
        m /= alg.b();
        ++L;
    }
    return L;  // internal levels 0 .. L-1; leaves below level L-1
}

/// Validation context of one run, threaded into the functional helpers:
/// the analysis sink (null = validation off), the run's static certificate,
/// and the detector budget. A default-constructed context means
/// "validation off".
struct ValCtx {
    analysis::AnalysisReport* report = nullptr;
    const hpu::verify::VerifyReport* cert = nullptr;
    analysis::RaceOptions race{};

    bool on() const noexcept { return report != nullptr; }

    /// This phase was statically proven race-free — the runtime may check
    /// footprint conformance instead of concretizing words.
    bool proven(verify::Phase ph) const {
        return cert != nullptr && cert->proven(ph);
    }
};

inline ValCtx validation_ctx(const ExecOptions& opts, ExecReport& rep) {
    ValCtx v;
    if (opts.validate && opts.functional) v.report = &rep.analysis;
    v.cert = &rep.verify;
    v.race = opts.race;
    return v;
}

/// Binds the run's Merge Path context onto the algorithm, right after
/// prepare(): the functional pool when the kernel is enabled for this run,
/// a null binding otherwise. Every executor entry point calls this, so a
/// single ExecOptions flag (or HPU_MERGE_PATH) governs all six executors.
template <typename T>
void bind_merge_exec(const LevelAlgorithm<T>& alg, util::ThreadPool* pool,
                     const ExecOptions& opts) {
    util::MergeExec ex;
    ex.kernel = opts.merge_path && opts.functional;
    ex.pool = ex.kernel ? pool : nullptr;
    alg.bind_exec(ex);
}

/// Race-checks one functional launch: launches whose phase the static pass
/// certified are checked for conformance against the declared footprint
/// (O(descriptors) per item); everything else goes through the exact
/// word-concretizing detector. Both paths share counter and budget
/// semantics, so a clean run's AnalysisReport is byte-identical either way.
template <typename T>
void check_launch(const LevelAlgorithm<T>& alg, verify::Phase phase,
                  const std::vector<sim::ItemAccessLog>& logs, std::uint64_t wave_width,
                  std::uint64_t task_size, const std::string& label, const ValCtx& val) {
    if (val.proven(phase)) {
        if (auto fp = alg.footprint(verify::FootprintQuery{phase}); fp.has_value()) {
            verify::check_conformance(*fp, logs, task_size, wave_width, label, *val.report,
                                      val.race);
            return;
        }
    }
    analysis::detect_races(logs, wave_width, label, *val.report, val.race);
}

/// Where a helper records its trace spans: the session, the parent span,
/// the virtual-clock tick the span starts at, and (for level spans) the
/// global level index. A default-constructed context means "tracing off".
struct SpanCtx {
    trace::TraceSession* session = nullptr;
    trace::SpanId parent = trace::kNoSpan;
    sim::Ticks at = 0.0;
    std::uint64_t level = trace::SpanAttrs::kNoLevel;
    bool profile = false;  ///< stamp wall time onto recorded spans

    bool on() const noexcept { return session != nullptr; }

    /// Same sink/parent at an absolute tick (and optionally a level index).
    SpanCtx moved(sim::Ticks to, std::uint64_t lvl = trace::SpanAttrs::kNoLevel) const {
        return SpanCtx{session, parent, to, lvl, profile};
    }

    /// now_ns() when profiling this span tree, else 0 ("not profiled") —
    /// the token annotate_wall() later turns into a wall stamp.
    std::uint64_t wall_start() const noexcept {
        return (profile && session != nullptr) ? util::now_ns() : 0;
    }
};

/// Stamps wall time onto a recorded span: `w0` is the wall_start() token
/// taken before the work; elapsed is clamped up to 1 ns so a profiled span
/// is always distinguishable from an unprofiled one (wall_ns == 0).
inline void annotate_wall(const SpanCtx& tc, trace::SpanId id, std::uint64_t w0) {
    if (w0 == 0 || id == trace::kNoSpan || tc.session == nullptr) return;
    const std::uint64_t t1 = util::now_ns();
    tc.session->annotate_wall(id, w0, t1 > w0 ? t1 - w0 : 1);
}

/// Clears the device's wave sink on scope exit (kernel bodies may throw).
class WaveTraceGuard {
public:
    WaveTraceGuard(sim::Device& dev, std::vector<sim::WaveTrace>* sink) : dev_(dev) {
        dev_.set_wave_trace(sink);
    }
    ~WaveTraceGuard() { dev_.set_wave_trace(nullptr); }
    WaveTraceGuard(const WaveTraceGuard&) = delete;
    WaveTraceGuard& operator=(const WaveTraceGuard&) = delete;

private:
    sim::Device& dev_;
};

/// One launch: a level (or leaf sweep) of `tasks` tasks on one unit.
struct Launch {
    trace::Unit unit = trace::Unit::kCpu;            ///< kCpu or kGpu
    trace::SpanKind kind = trace::SpanKind::kLevel;  ///< kLevel or kLeaves
    const char* phase = "cpu-level";                 ///< label: <alg>/<phase>[<tasks> tasks]
    std::uint64_t tasks = 0;
    std::uint64_t working_set = 0;  ///< CPU: bytes the level touches (LLC contention)
    bool intra = false;  ///< task bodies may split their own work across the host pool
    // Analytic pricing, used when no body runs. Analytic levels are
    // uniform: every task charges task_ops, so the critical task IS the
    // mean.
    double task_ops = 0.0;  ///< per-task ops in the unit's currency
    double work = 0.0;      ///< span attrs: CPU-priced total work...
    double ops = 0.0;       ///< ...and the unit-priced total
    // Dynamic-tree shape span attrs (irregular levels only; 0 = not set).
    std::uint64_t extent_words = 0;
    double imbalance = 0.0;
};

/// What a launch took, its ops in the unit's currency (CPU ops, or device
/// ops with the strided penalty), and the level span it recorded (kNoSpan
/// untraced).
struct Launched {
    sim::Ticks time = 0.0;
    double ops = 0.0;
    trace::SpanId span = trace::kNoSpan;
};

/// A launch body that takes a whole work-group: (first task, one OpCounter
/// per task of the group).
template <typename Body>
inline constexpr bool kGroupBody =
    std::is_invocable_v<Body&, std::uint64_t, std::span<sim::OpCounter>>;

/// The launch primitive. With a body — a callable (task index, OpCounter&)
/// or a group body — runs the level on `cpu` or `*dev` and records its
/// span (per-wave children on the device) from the measured charges; with
/// `nullptr`, prices the uniform level from Launch::task_ops and records
/// that span. A device launch runs in work-groups (sim::WorkGroup): a
/// group body gets each group whole, a per-task body runs once per task of
/// the group; on the CPU a group body gets groups of one. `tc.at` is the
/// tick the launch starts at, `tc.level` its level index.
template <typename T, typename Body>
Launched launch(sim::CpuUnit& cpu, sim::Device* dev, const LevelAlgorithm<T>& alg,
                const Launch& l, const SpanCtx& tc, Body&& body) {
    Launched out;
    const bool gpu = l.unit == trace::Unit::kGpu;
    trace::SpanAttrs a;
    a.level = tc.level;
    a.tasks = l.tasks;
    a.extent_words = l.extent_words;
    a.imbalance = l.imbalance;
    if constexpr (std::is_null_pointer_v<std::remove_cvref_t<Body>>) {
        if (gpu) {
            const sim::DeviceParams& dp = dev->params();
            out.time = dp.launch_time(static_cast<double>(util::ceil_div(l.tasks, dp.g)),
                                      l.task_ops);
        } else {
            const sim::CpuParams& cp = cpu.params();
            out.time = cp.level_time(static_cast<double>(util::ceil_div(l.tasks, cp.p)),
                                     l.task_ops, cp.contention_factor(l.tasks, l.working_set));
        }
        out.ops = l.ops;
        if (!tc.on()) return out;
        a.work = l.work;
        a.ops = l.ops;
        if (l.tasks > 0) a.max_ops = l.ops / static_cast<double>(l.tasks);
        if (gpu) {
            a.items = l.tasks;
            a.waves = util::ceil_div(l.tasks, dev->params().g);
        }
        out.span = tc.session->record(l.kind, l.unit, launch_label(alg.name(), l.phase, l.tasks),
                                      tc.at, out.time, a, tc.parent);
    } else if (!gpu) {
        const std::uint64_t w0 = tc.wall_start();
        const sim::LevelResult r = [&] {
            if constexpr (kGroupBody<Body>) {
                return cpu.run_level(
                    l.tasks,
                    [&](std::uint64_t j, sim::OpCounter& ops) {
                        body(j, std::span<sim::OpCounter>(&ops, 1));
                    },
                    l.working_set, l.intra);
            } else {
                return cpu.run_level(l.tasks, body, l.working_set, l.intra);
            }
        }();
        out.time = r.time;
        out.ops = static_cast<double>(r.total_ops.cpu_ops());
        if (!tc.on()) return out;
        a.ops = out.ops;
        a.max_ops = static_cast<double>(r.max_task_ops);
        a.work = a.ops;
        out.span = tc.session->record(l.kind, trace::Unit::kCpu,
                                      launch_label(alg.name(), l.phase, r.tasks), tc.at, r.time,
                                      a, tc.parent);
        annotate_wall(tc, out.span, w0);
    } else {
        const std::uint64_t w0 = tc.wall_start();
        std::vector<sim::WaveTrace> waves;
        WaveTraceGuard guard(*dev, tc.on() ? &waves : nullptr);
        const sim::LaunchResult r = dev->launch(
            l.tasks,
            [&](sim::WorkGroup& g) {
                const std::span<sim::OpCounter> ops = g.ops();
                if constexpr (kGroupBody<Body>) {
                    body(g.first_id(), ops);
                } else {
                    for (std::size_t i = 0; i < ops.size(); ++i) body(g.first_id() + i, ops[i]);
                }
            },
            l.intra);
        const auto& dp = dev->params();
        out.time = r.time;
        out.ops = r.total_ops.gpu_ops(dp.strided_penalty);
        if (!tc.on()) return out;
        a.items = r.items;
        a.waves = r.waves;
        a.ops = out.ops;
        a.max_ops = r.max_item_ops;
        a.work = static_cast<double>(r.total_ops.cpu_ops());
        a.coalesced_transactions = util::ceil_div(r.total_ops.mem_coalesced, dp.coalesce_width);
        a.strided_transactions = r.total_ops.mem_strided;
        const std::string name = alg.name();
        out.span = tc.session->record(l.kind, trace::Unit::kGpu,
                                      launch_label(name, l.phase, l.tasks), tc.at, r.time, a,
                                      tc.parent);
        sim::Ticks cursor = tc.at + dp.launch_overhead;
        for (const sim::WaveTrace& w : waves) {
            trace::SpanAttrs wa;
            wa.items = w.items;
            wa.ops = w.ops.gpu_ops(dp.strided_penalty);
            wa.max_ops = w.max_item_ops;
            wa.work = static_cast<double>(w.ops.cpu_ops());
            wa.coalesced_transactions = util::ceil_div(w.ops.mem_coalesced, dp.coalesce_width);
            wa.strided_transactions = w.ops.mem_strided;
            tc.session->record(trace::SpanKind::kWave, trace::Unit::kGpu,
                               launch_label(name, "wave", w.items), cursor, w.duration, wa,
                               out.span);
            cursor += w.duration;
        }
        annotate_wall(tc, out.span, w0);
    }
    return out;
}

/// A device-side hook's time plus an optional kHook span (skipped when the
/// hook charged nothing — most algorithms have empty hooks). `wall0` is a
/// wall_start() token taken before the hook body executed; 0 = not profiled.
inline sim::Ticks traced_hook(const sim::Device& dev, const sim::OpCounter& ops,
                              const std::string& name, const char* what, const SpanCtx& tc,
                              std::uint64_t wall0 = 0) {
    const double gpu_ops = ops.gpu_ops(dev.params().strided_penalty);
    const sim::Ticks t = dev.params().hook_time(gpu_ops);
    if (tc.on() && t > 0.0) {
        trace::SpanAttrs a;
        a.ops = gpu_ops;
        a.work = static_cast<double>(ops.cpu_ops());
        const trace::SpanId id =
            tc.session->record(trace::SpanKind::kHook, trace::Unit::kGpu,
                               phase_label(name, what), tc.at, t, a, tc.parent);
        annotate_wall(tc, id, wall0);
    }
    return t;
}

/// A host-side pass (pre-pass, finalize), with its kHook span when it
/// charged anything. `w0` is a wall_start() token taken before the pass ran.
inline sim::Ticks host_pass(const sim::OpCounter& ops, const sim::CpuParams& cpu,
                            const std::string& name, const char* what, const SpanCtx& tc,
                            std::uint64_t w0) {
    const sim::Ticks t = cpu.host_pass_time(static_cast<double>(ops.cpu_ops()));
    if (tc.on() && t > 0.0) {
        trace::SpanAttrs a;
        a.ops = static_cast<double>(ops.cpu_ops());
        a.work = a.ops;
        const trace::SpanId id = tc.session->record(
            trace::SpanKind::kHook, trace::Unit::kCpu, phase_label(name, what), tc.at, t, a,
            tc.parent);
        annotate_wall(tc, id, w0);
    }
    return t;
}

/// Host pre-pass (e.g. FFT bit-reversal).
template <typename T>
sim::Ticks host_pre_pass(const LevelAlgorithm<T>& alg, std::span<T> data,
                         const sim::CpuParams& cpu, const SpanCtx& tc = {}) {
    const std::uint64_t w0 = tc.wall_start();
    sim::OpCounter pre;
    alg.before_run(data, pre);
    return host_pass(pre, cpu, alg.name(), "pre", tc, w0);
}

/// Records a link-transfer span. `wall0` is a wall_start() token taken
/// before the physical copy; 0 = not profiled.
inline void trace_transfer(const SpanCtx& tc, const std::string& name, const char* what,
                           std::uint64_t words, std::uint64_t bytes, sim::Ticks time,
                           std::uint64_t wall0 = 0) {
    if (!tc.on()) return;
    trace::SpanAttrs a;
    a.items = words;
    a.bytes = bytes;
    const trace::SpanId id =
        tc.session->record(trace::SpanKind::kTransfer, trace::Unit::kLink,
                           phase_label(name, what), tc.at, time, a, tc.parent);
    annotate_wall(tc, id, wall0);
}

/// Opens the root run span of one executor invocation (kNoSpan when
/// tracing is off); close_run finalizes its end once the total is known.
inline trace::SpanId open_run(const ExecOptions& opts, const std::string& name,
                              const char* executor, std::uint64_t n) {
    if (opts.trace == nullptr) return trace::kNoSpan;
    trace::SpanAttrs a;
    a.items = n;
    const trace::SpanId id = opts.trace->record(trace::SpanKind::kRun, trace::Unit::kHost,
                                                phase_label(name, executor), 0.0, 0.0, a);
    // Profiling stashes the wall start on the open span; close_run turns it
    // into the run's wall duration (wall_ns stays 0 — "unprofiled" — until
    // then).
    if (opts.profile) opts.trace->annotate_wall(id, util::now_ns(), 0);
    return id;
}

inline void close_run(const ExecOptions& opts, trace::SpanId run, sim::Ticks total) {
    if (opts.trace == nullptr || run == trace::kNoSpan) return;
    opts.trace->close(run, total);
    const std::uint64_t w0 = opts.trace->span(run).wall_start_ns;
    if (opts.profile && w0 != 0) {
        const std::uint64_t t1 = util::now_ns();
        opts.trace->annotate_wall(run, w0, t1 > w0 ? t1 - w0 : 1);
    }
}

/// Opens a phase grouping span under `run`; closed by the caller.
inline trace::SpanId open_phase(const ExecOptions& opts, trace::SpanId run,
                                const std::string& name, const char* phase, trace::Unit unit,
                                sim::Ticks start) {
    if (opts.trace == nullptr) return trace::kNoSpan;
    return opts.trace->record(trace::SpanKind::kPhase, unit, phase_label(name, phase), start,
                              0.0, {}, run);
}

/// Closes a phase span at `end` (no-op when tracing is off).
inline void close_phase(const ExecOptions& opts, trace::SpanId phase, sim::Ticks end) {
    if (opts.trace != nullptr && phase != trace::kNoSpan) opts.trace->close(phase, end);
}

}  // namespace detail
}  // namespace hpu::core
