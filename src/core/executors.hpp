// Single-unit executors for LevelAlgorithms: the 1-core sequential baseline
// (the paper's speedup denominator), the multi-core breadth-first executor,
// and the GPU-only breadth-first executor (§4.2). The hybrid schedulers
// live in core/hybrid.hpp and core/pipeline.hpp.
//
// On a regular tree the executors process the recursion tree bottom-up by
// *global level* index i (0 = root, L-1 = deepest internal level,
// L = log_b n), running the a^i independent tasks of each level on the
// chosen unit. They require a == b so that level tasks tile the array
// contiguously.
//
// Every executor, for both tree kinds, is the same two steps: a producer
// builds the run's Plan (core/plan.hpp), and detail::run_plan runs that
// plan — the static verifier checks it (ExecOptions::verify), then the
// plan walker runs a regular plan, or the expand/combine sweeps run a
// dynamic tree's (core/irregular.hpp), functionally or analytically,
// through the one launch primitive (core/launch.hpp), which also records
// the span tree and the validation findings. A validated regular run also
// checks the schedule it executed with the verifier's checker.
//
// Host-parallel functional execution: construct the sim::Hpu (or CpuUnit)
// with a util::ThreadPool and CPU levels / device waves run pool-parallel.
// This only accelerates wall-clock; virtual times, traces, and analysis
// findings are bit-identical to the inline run (DESIGN.md §10, enforced
// by the pooled-vs-inline determinism sweep).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "core/irregular.hpp"
#include "core/launch.hpp"
#include "core/level_algorithm.hpp"
#include "core/plan.hpp"
#include "obs/watchdog.hpp"
#include "sim/hpu.hpp"
#include "trace/span.hpp"
#include "verify/verify.hpp"

namespace hpu::core {

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
    rep.obs = obs::observe(*opts.trace, run, ctx);
}

/// Runs one plan end to end on `cpu` (and `dev`) of machine `hw`:
/// prepares the algorithm, binds its merge context, verifies `plan` itself
/// (ExecOptions::verify) and opens the run span; then runs the host
/// pre-pass and walks the climbs of a regular plan, or runs the
/// expand/combine sweeps of a dynamic one (core/irregular.hpp); closes the
/// run and observes a regular one (the observation models the regular
/// recurrence). Under validation a regular run logs every launch and
/// transfer it executes and checks that schedule with verify::check_plan:
/// each violated invariant is one kScheduleViolation error.
template <typename T>
ExecReport run_plan(const Plan& plan, sim::CpuUnit& cpu, sim::Device* dev,
                    const sim::HpuParams& hw, const LevelAlgorithm<T>& alg, std::span<T> data,
                    const ExecOptions& opts, std::size_t requested_chunks = 0) {
    alg.prepare(data.size());
    bind_merge_exec(alg, cpu.pool(), opts);
    ExecReport rep;
    if (opts.verify) rep.verify = verify::verify_plan(alg, plan, hw);
    const ValCtx val = validation_ctx(opts, rep);
    const trace::SpanId run = open_run(opts, alg.name(), plan.executor, data.size());
    if (plan.dynamic()) {
        Sweeps<T>{plan, alg, cpu, dev, hw, opts, val, data, rep}.run(run);
        close_run(opts, run, rep.total);
        return rep;
    }
    const SpanCtx rt{opts.trace, run, 0.0, trace::SpanAttrs::kNoLevel, opts.profile};
    const sim::Ticks pre = host_pre_pass(alg, data, cpu.params(), rt);
    verify::SchedulePlan executed;
    Walker<T> w{plan, alg, cpu, dev, hw.link, opts, val, data, rep,
                val.on() ? &executed : nullptr};
    w.walk(pre, run);
    if (val.on()) {
        verify::VerifyReport checked;
        verify::check_plan(executed, hw, checked);
        for (const verify::VerifyFinding& f : checked.findings) {
            analysis::Finding v;
            v.kind = analysis::FindingKind::kScheduleViolation;
            v.launch = alg.name() + "/" + plan.executor;
            v.detail = f.message();
            val.report->add(std::move(v));
        }
    }
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
    return detail::run_plan(plan_cpu(alg, data.size(), "sequential"), single, nullptr, hw, alg,
                            data, opts);
}

/// Multi-core breadth-first execution on the HPU's p CPU cores (GPU idle).
template <typename T>
ExecReport run_multicore(sim::CpuUnit& cpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                         const ExecOptions& opts = {}) {
    sim::HpuParams hw;
    hw.cpu = cpu.params();
    return detail::run_plan(plan_cpu(alg, data.size(), "multicore"), cpu, nullptr, hw, alg,
                            data, opts);
}

/// GPU-only breadth-first execution (§4.2): ship the array, run every level
/// as a kernel, ship it back. `include_transfers` toggles the two link
/// events. Levels elementwise-1..0 run element-wise (plan_gpu): 0 keeps
/// one work-item per task throughout, L or more is the Fig. 9 mergesort.
template <typename T>
ExecReport run_gpu(sim::Hpu& hpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                   const ExecOptions& opts = {}, bool include_transfers = true,
                   std::uint64_t elementwise = 0) {
    return detail::run_plan(plan_gpu(alg, data.size(), include_transfers, elementwise),
                            hpu.cpu(), &hpu.gpu(), hpu.params(), alg, data, opts);
}

}  // namespace hpu::core
