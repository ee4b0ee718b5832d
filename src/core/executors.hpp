// Single-unit executors for LevelAlgorithms: the 1-core sequential baseline
// (the paper's speedup denominator), the multi-core breadth-first executor,
// and the GPU-only breadth-first executor (§4.2). The hybrid schedulers
// live in core/hybrid.hpp and core/pipeline.hpp.
//
// All executors process the recursion tree bottom-up by *global level*
// index i (0 = root, L-1 = deepest internal level, L = log_b n), running
// the a^i independent tasks of each level on the chosen unit. They require
// a == b so that level tasks tile the array contiguously.
//
// Every regular executor is the same three steps: a producer builds the
// run's Plan (core/plan.hpp), the static verifier checks that plan priced
// (ExecOptions::verify), and the plan walker runs it — functionally or
// analytically — through the one launch primitive (core/launch.hpp), which
// also records the span tree and the validation findings.
//
// Host-parallel functional execution: construct the sim::Hpu (or CpuUnit)
// with a util::ThreadPool and CPU levels / device waves run pool-parallel.
// This only accelerates wall-clock; virtual times, traces, and analysis
// findings are bit-identical to the inline run (DESIGN.md §10, enforced
// by the pooled-vs-inline determinism sweep).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/launch.hpp"
#include "core/level_algorithm.hpp"
#include "core/plan.hpp"
#include "obs/watchdog.hpp"
#include "sim/hpu.hpp"
#include "trace/span.hpp"
#include "verify/verify.hpp"

namespace hpu::core {

/// Which scheduler shape core/irregular.hpp emulates for a dynamic task
/// tree. Each of the six public executors maps onto one of these when
/// handed an IrregularLevelAlgorithm.
enum class IrregularMode : std::uint8_t {
    kSequential,  ///< 1 core, no device
    kMulticore,   ///< p cores, no device
    kGpu,         ///< device only (optional boundary transfers)
    kBasic,       ///< whole-level placement, observed-cost crossover
    kAdvanced,    ///< per-level α split re-balanced from observed widths
    kPipelined,   ///< advanced + chunked GPU input transfers
};

template <typename T>
ExecReport run_irregular(sim::CpuUnit& cpu, sim::Device* dev, const sim::HpuParams& hw,
                         const IrregularLevelAlgorithm<T>& alg, std::span<T> data,
                         IrregularMode mode, const ExecOptions& opts, std::uint64_t chunks,
                         bool include_transfers, const char* executor_label);

namespace detail {

/// Runs the hpu::obs observation over the just-closed run when
/// ExecOptions::observe is on. Called strictly after close_run — every
/// tick of the report is already settled, and the observation is read-only
/// over the session, so enabling it cannot perturb anything (enforced by
/// test). CPU-only executors pass a partial HpuParams (their CpuParams
/// plus defaults): without GPU or link spans the device-side parameters
/// stay non-identifiable and fire no findings.
template <typename T>
void observe_run(const ExecOptions& opts, ExecReport& rep, trace::SpanId run,
                 const sim::HpuParams& hw, const LevelAlgorithm<T>& alg,
                 util::ThreadPool* pool, std::size_t requested_chunks = 0,
                 std::size_t settled_chunks = 0) {
    if (!opts.observe || opts.trace == nullptr || run == trace::kNoSpan) return;
    obs::ObserveContext ctx;
    ctx.hw = hw;
    ctx.rec = alg.recurrence();
    ctx.device_ops_multiplier = alg.device_ops_multiplier(hw.gpu);
    if (pool != nullptr) ctx.pool = pool->telemetry();
    ctx.requested_chunks = requested_chunks;
    ctx.settled_chunks = settled_chunks;
    ctx.thresholds = opts.watchdog;
    rep.obs = obs::observe(*opts.trace, run, ctx);
}

/// Runs one regular plan end to end on `cpu` (and `dev`): opens the run
/// span, runs the host pre-pass — or, when the caller already ran it,
/// records `pre_done` — walks the plan, closes the run and observes it.
/// `rep` arrives with its verify certificate filled in.
template <typename T>
ExecReport run_plan(const Plan& plan, sim::CpuUnit& cpu, sim::Device* dev,
                    const sim::HpuParams& hw, const LevelAlgorithm<T>& alg, std::span<T> data,
                    const ExecOptions& opts, ExecReport rep,
                    std::optional<sim::Ticks> pre_done = std::nullopt,
                    std::size_t requested_chunks = 0) {
    rep.trace = opts.trace;
    const ValCtx val = validation_ctx(opts, rep);
    const trace::SpanId run = open_run(opts, alg.name(), plan.executor, data.size());
    const SpanCtx rt{opts.trace, run, 0.0, trace::SpanAttrs::kNoLevel, opts.profile};
    const std::size_t p = cpu.params().p;
    sim::Ticks pre = pre_done.value_or(0.0);
    if (!pre_done) {
        pre = host_pre_pass(alg, data, p, rt);
    } else if (opts.trace != nullptr && pre > 0.0) {
        // The basic hybrid prices its pre-pass before it knows whether it
        // falls back to the multicore executor; its span is recorded here.
        trace::SpanAttrs a;
        a.ops = pre * static_cast<double>(p);
        a.work = a.ops;
        opts.trace->record(trace::SpanKind::kHook, trace::Unit::kCpu,
                           phase_label(alg.name(), "pre"), 0.0, pre, a, run);
    }
    Walker<T> w{plan, alg, cpu, dev, hw.link, opts, val, data, rep};
    w.walk(pre, run);
    close_run(opts, run, rep.total);
    observe_run(opts, rep, run, hw, alg, cpu.pool(), requested_chunks, rep.chunks);
    return rep;
}

}  // namespace detail

/// 1-core sequential execution — the paper's baseline comparator. The
/// recursive (Alg. 1) and breadth-first (Alg. 2) orders charge identical
/// ops on one core, so this is the time of both.
template <typename T>
ExecReport run_sequential(sim::CpuUnit& cpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                          const ExecOptions& opts = {}) {
    sim::CpuParams one_core = cpu.params();
    one_core.p = 1;
    one_core.contention = 0.0;  // a single core does not compete with itself
    // The virtual machine has one core, but the *functional* execution
    // still rides the caller's thread pool — the two clocks are
    // independent (DESIGN.md §10).
    sim::CpuUnit single(one_core, cpu.pool());
    sim::HpuParams hw;
    hw.cpu = one_core;
    if (const auto* irr = alg.as_irregular()) {
        return run_irregular(single, static_cast<sim::Device*>(nullptr), hw, *irr, data,
                             IrregularMode::kSequential, opts, /*chunks=*/0,
                             /*include_transfers=*/false, "sequential");
    }
    const Plan plan = plan_cpu(alg, data.size(), "sequential");
    alg.prepare(data.size());
    detail::bind_merge_exec(alg, cpu.pool(), opts);
    ExecReport rep;
    if (opts.verify) rep.verify = verify::verify_cpu_run(alg, data.size(), single, "sequential");
    return detail::run_plan(plan, single, nullptr, hw, alg, data, opts, std::move(rep));
}

/// Multi-core breadth-first execution on the HPU's p CPU cores (GPU idle).
template <typename T>
ExecReport run_multicore(sim::CpuUnit& cpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                         const ExecOptions& opts = {}) {
    sim::HpuParams hw;
    hw.cpu = cpu.params();
    if (const auto* irr = alg.as_irregular()) {
        return run_irregular(cpu, static_cast<sim::Device*>(nullptr), hw, *irr, data,
                             IrregularMode::kMulticore, opts, /*chunks=*/0,
                             /*include_transfers=*/false, "multicore");
    }
    const Plan plan = plan_cpu(alg, data.size(), "multicore");
    alg.prepare(data.size());
    detail::bind_merge_exec(alg, cpu.pool(), opts);
    ExecReport rep;
    if (opts.verify) rep.verify = verify::verify_cpu_run(alg, data.size(), cpu, "multicore");
    return detail::run_plan(plan, cpu, nullptr, hw, alg, data, opts, std::move(rep));
}

/// GPU-only breadth-first execution (§4.2): ship the array, run every level
/// as a kernel, ship it back. `include_transfers` toggles the two link
/// events (Fig. 9 reports both variants).
template <typename T>
ExecReport run_gpu(sim::Hpu& hpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                   const ExecOptions& opts = {}, bool include_transfers = true) {
    if (const auto* irr = alg.as_irregular()) {
        return run_irregular(hpu.cpu(), &hpu.gpu(), hpu.params(), *irr, data,
                             IrregularMode::kGpu, opts, /*chunks=*/0, include_transfers,
                             "gpu");
    }
    const Plan plan = plan_gpu(alg, data.size(), include_transfers);
    alg.prepare(data.size());
    detail::bind_merge_exec(alg, hpu.cpu().pool(), opts);
    ExecReport rep;
    if (opts.verify) {
        verify::RunShape shape;
        shape.kind = verify::RunShape::Kind::kGpu;
        shape.include_transfers = include_transfers;
        rep.verify = verify::verify_hybrid_run(alg, data.size(), hpu, shape);
    }
    return detail::run_plan(plan, hpu.cpu(), &hpu.gpu(), hpu.params(), alg, data, opts,
                            std::move(rep));
}

}  // namespace hpu::core

// The dynamic-tree engine is a separate header for readability, but it needs
// the detail helpers above and the executors need its run_irregular — so it
// is textually part of this header (include-at-bottom; it has no own guard
// loop because both files are #pragma once).
#include "core/irregular.hpp"  // IWYU pragma: keep
