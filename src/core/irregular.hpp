// The irregular-tree engine: executes an IrregularLevelAlgorithm whose
// recursion tree is produced dynamically — variable arity, uneven extents,
// empty branches, early termination — on every scheduler shape of the
// framework (IrregularMode). The six public executors dispatch here when
// handed an irregular algorithm; regular algorithms never reach this file,
// which keeps the regular paths bit-identical to the pre-irregular build.
//
// Two sweeps, mirroring the breadth-first translation (Alg. 2):
//
//   expand  — top-down: run every task's divide_task; the concatenated
//             children (in task order) become the next level's list; an
//             empty frontier ends the sweep.
//   combine — bottom-up over the recorded levels: run every task's
//             combine_task with its recorded children (empty span = leaf).
//             Skipped when has_combine() is false.
//
// Every level part runs — or, in analytic mode, is priced — through the
// launch primitive the regular plan walker uses (core/launch.hpp); only
// the sweeps and the per-level scheduling below are specific to dynamic
// trees.
//
// Scheduling: the closed-form (α, y) plans of §5 assume level i has a^i
// equal tasks, which a dynamic tree does not honor. The hybrid modes
// therefore re-derive the split PER LEVEL from the observed task list
// (model/observed.hpp): kAdvanced chooses the prefix k that minimizes the
// estimated level makespan (the per-level α re-balance), kBasic places
// whole levels on the cheaper unit including the residency switch
// transfer. The pipelined executor runs kAdvanced: a level's device part
// is one launch, so there is nothing to chunk. Decisions are pure
// functions of (hardware, per-task estimates), so pooled and inline runs
// schedule — and therefore time — identically.
//
// Correctness machinery on the dynamic path:
//  - verify: static race-freedom proofs need static footprints, which a
//    data-dependent tree cannot declare. ExecOptions::verify attaches
//    verify_irregular_run's downgrade certificate (all phases kUnknown +
//    a kDynamicFootprint finding), which keeps the exact runtime checks on.
//  - validate: per dynamic level, declared extents are checked pairwise
//    disjoint (analysis::detect_extent_overlaps) and the logged accesses
//    of ALL the level's tasks go through the exact race detector with the
//    full width as the concurrency window (CPU and GPU parts of a split
//    level overlap in virtual time). The schedule-independence re-run and
//    the residency lint of the regular path do not apply here (divide
//    bodies mutate the frontier; there is no device buffer object).
//  - trace: run → phase(expand/combine) → level(+waves) spans; level
//    spans carry the level's extent_words and imbalance attributes.
//  - obs: skipped — the observation's drift model assumes the regular
//    recurrence shape; ExecReport::obs stays attempted=false.
//
// Functional execution happens in host memory (like every functional path
// of the simulator); transfer time is charged per the mode: kGpu ships the
// array across the boundary once each way, kBasic pays residency switches,
// kAdvanced ships each level's GPU part in before its launch and out after
// it.
//
// Analytic mode prices the tree from analytic_widths(n) — task bodies do
// not run (root_tasks/finalize included), data is untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/executors.hpp"
#include "model/observed.hpp"

namespace hpu::core {
namespace irr_detail {

/// One recorded level of the expand sweep: its task list plus, per task,
/// the offset of its children in the NEXT level's list (prefix sums,
/// child_off.size() == width + 1).
struct LevelRecord {
    TaskList list;
    std::vector<std::uint64_t> child_off;
};

inline double est_sum(const std::vector<model::ObservedTask>& est, std::uint64_t b,
                      std::uint64_t e) {
    double s = 0.0;
    for (std::uint64_t j = b; j < e; ++j) s += est[j].cost;
    return s;
}

inline std::uint64_t est_words(const std::vector<model::ObservedTask>& est, std::uint64_t b,
                               std::uint64_t e) {
    std::uint64_t w = 0;
    for (std::uint64_t j = b; j < e; ++j) w += est[j].words;
    return w;
}

/// How one dynamic level is scheduled: the prefix [0, k) runs on the CPU,
/// [k, W) on the device. kBasic may pay a residency-switch transfer up
/// front; kAdvanced ships the GPU part in and out every level.
struct LevelPlan {
    std::uint64_t k = 0;
    sim::Ticks switch_xfer = 0.0;
    std::uint64_t switch_words = 0;
    const char* switch_dir = nullptr;  ///< "xfer-in" / "xfer-out" (kBasic)
    bool per_level_xfers = false;
};

}  // namespace irr_detail

template <typename T>
ExecReport run_irregular(sim::CpuUnit& cpu, sim::Device* dev, const sim::HpuParams& hw,
                         const IrregularLevelAlgorithm<T>& alg, std::span<T> data,
                         IrregularMode mode, const ExecOptions& opts, bool include_transfers,
                         const char* executor_label) {
    const std::uint64_t n = data.size();
    HPU_CHECK(alg.admissible(n), "input size not admissible for this algorithm");
    const bool cpu_only =
        mode == IrregularMode::kSequential || mode == IrregularMode::kMulticore;
    HPU_CHECK(cpu_only || dev != nullptr, "gpu/hybrid irregular modes need a device");
    alg.prepare(n);
    detail::bind_merge_exec(alg, cpu.pool(), opts);

    ExecReport rep;
    rep.trace = opts.trace;
    if (opts.verify) {
        rep.verify = verify::verify_irregular_run(alg.name(), executor_label, n);
    }
    const detail::ValCtx val = detail::validation_ctx(opts, rep);
    const trace::SpanId run = detail::open_run(opts, alg.name(), executor_label, n);
    const detail::SpanCtx rt{opts.trace, run, 0.0, trace::SpanAttrs::kNoLevel, opts.profile};

    const double mult = cpu_only ? 1.0 : alg.device_ops_multiplier(hw.gpu);
    const bool hybrid = mode == IrregularMode::kBasic || mode == IrregularMode::kAdvanced;

    sim::Ticks clock = 0.0;
    double cpu_est_work = 0.0, total_est_work = 0.0;
    bool on_device = false;  ///< where the frontier lives (kBasic residency)

    // Mode policy for one level, from the per-task estimates alone.
    auto plan_level = [&](const std::vector<model::ObservedTask>& est) {
        irr_detail::LevelPlan plan;
        const std::uint64_t width = est.size();
        switch (mode) {
            case IrregularMode::kSequential:
            case IrregularMode::kMulticore: plan.k = width; break;
            case IrregularMode::kGpu: plan.k = 0; break;
            case IrregularMode::kBasic: {
                const std::uint64_t fw = irr_detail::est_words(est, 0, width);
                const sim::Ticks sw = hw.link.transfer_time(fw);
                const auto pl = model::place_observed_level(hw, est, mult,
                                                            on_device ? sw : 0.0,
                                                            on_device ? 0.0 : sw);
                if (pl.unit == model::LevelPlacement::kCpu) {
                    plan.k = width;
                    if (on_device) {
                        plan.switch_xfer = sw;
                        plan.switch_words = fw;
                        plan.switch_dir = "xfer-out";
                        on_device = false;
                    }
                } else {
                    plan.k = 0;
                    if (!on_device) {
                        plan.switch_xfer = sw;
                        plan.switch_words = fw;
                        plan.switch_dir = "xfer-in";
                        on_device = true;
                    }
                }
                break;
            }
            case IrregularMode::kAdvanced: {
                const auto sp = model::split_observed_level(hw, est, mult,
                                                            /*include_transfers=*/true);
                plan.k = sp.cpu_tasks;
                plan.per_level_xfers = true;
                break;
            }
        }
        cpu_est_work += irr_detail::est_sum(est, 0, plan.k);
        total_est_work += irr_detail::est_sum(est, 0, width);
        return plan;
    };

    // Schedules one level from its per-task estimates and runs its CPU
    // part [0, k) and GPU part [k, W) through the launch primitive —
    // functionally with `body(j, ops)` executing task j, priced from the
    // (uniform) estimates when `body` is nullptr — then advances the clock
    // by the level makespan.
    auto run_level = [&](const std::vector<model::ObservedTask>& est, std::uint64_t depth,
                         trace::SpanId phase_span, double imb,
                         std::vector<sim::ItemAccessLog>& logs, auto&& body) {
        const std::uint64_t width = est.size();
        const irr_detail::LevelPlan plan = plan_level(est);
        const detail::SpanCtx tc{opts.trace, phase_span, clock, depth, opts.profile};
        if (plan.switch_xfer > 0.0) {
            detail::trace_transfer(tc, alg.name(), plan.switch_dir, plan.switch_words,
                                   plan.switch_words * sizeof(T), plan.switch_xfer);
            rep.transfer += plan.switch_xfer;
            clock += plan.switch_xfer;
        }
        const sim::Ticks level_start = clock;
        // Tasks [b, e) of the level on `unit`, starting `at` into the level.
        auto part = [&](trace::Unit unit, std::uint64_t b, std::uint64_t e, sim::Ticks at) {
            const bool gpu = unit == trace::Unit::kGpu;
            detail::Launch l;
            l.unit = unit;
            l.phase = gpu ? "gpu-level" : "cpu-level";
            l.tasks = e - b;
            l.intra = alg.intra_task_parallel();
            l.extent_words = irr_detail::est_words(est, b, e);
            l.imbalance = imb;
            if (!gpu) l.working_set = alg.level_working_set_bytes(l.extent_words);
            const detail::SpanCtx pt = tc.moved(at, depth);
            if constexpr (std::is_null_pointer_v<std::remove_cvref_t<decltype(body)>>) {
                const double cost = est[b].cost;
                l.task_ops = gpu ? cost * mult : cost;
                l.work = cost * static_cast<double>(l.tasks);
                l.ops = gpu ? l.work * mult : l.work;
                return detail::launch(cpu, dev, alg, l, pt, nullptr).time;
            } else {
                return detail::launch(cpu, dev, alg, l, pt,
                                      [&](std::uint64_t j, sim::OpCounter& ops) {
                                          if (!logs.empty()) ops.trace = &logs[b + j];
                                          body(b + j, ops);
                                      })
                    .time;
            }
        };
        sim::Ticks cpu_time = 0.0, gpu_path = 0.0;
        if (plan.k > 0) {
            cpu_time = part(trace::Unit::kCpu, 0, plan.k, level_start);
            rep.cpu_busy += cpu_time;
            ++rep.levels_cpu;
        }
        if (plan.k < width) {
            // One launch; a plan that ships per level brackets it with the
            // transfers of the part's words in and back out.
            const std::uint64_t gpu_words = irr_detail::est_words(est, plan.k, width);
            const sim::Ticks x =
                plan.per_level_xfers ? hw.link.transfer_time(gpu_words) : 0.0;
            if (plan.per_level_xfers) {
                detail::trace_transfer(tc.moved(level_start, depth), alg.name(), "xfer-in",
                                       gpu_words, gpu_words * sizeof(T), x);
                rep.transfer += x;
            }
            const sim::Ticks t = part(trace::Unit::kGpu, plan.k, width, level_start + x);
            rep.gpu_busy += t;
            ++rep.levels_gpu;
            gpu_path = x + t;
            if (plan.per_level_xfers) {
                detail::trace_transfer(tc.moved(level_start + gpu_path, depth), alg.name(),
                                       "xfer-out", gpu_words, gpu_words * sizeof(T), x);
                rep.transfer += x;
                gpu_path += x;
            }
        }
        clock = level_start + std::max(cpu_time, gpu_path);
    };

    // Runs one functional level; `body(j, ops)` executes task j's
    // divide/combine.
    auto run_level_functional = [&](const TaskList& list, std::uint64_t depth,
                                    const char* sweep, bool combine, trace::SpanId phase_span,
                                    auto&& body) {
        const std::uint64_t width = list.width();
        if (width == 0) return;
        std::vector<model::ObservedTask> est(width);
        for (std::uint64_t j = 0; j < width; ++j) {
            est[j] = model::ObservedTask{alg.task_cost_estimate(list.tasks[j], combine),
                                         list.tasks[j].size()};
        }
        const std::string label = launch_label(alg.name(), sweep, width);
        std::vector<sim::ItemAccessLog> logs;
        if (val.on()) {
            std::vector<analysis::Extent> ex;
            ex.reserve(width);
            for (const TaskDesc& t : list.tasks) ex.push_back({t.begin, t.end});
            analysis::detect_extent_overlaps(ex, label, *val.report, val.race);
            logs.resize(width);
        }
        run_level(est, depth, phase_span, list.imbalance(), logs, body);
        if (val.on()) {
            // CPU and GPU parts of a split level overlap in virtual time,
            // so the whole width is one concurrency window.
            analysis::detect_races(logs, width, label, *val.report, val.race);
        }
    };

    // Analytic twin: prices one uniform level of `width` tasks without
    // executing anything.
    auto run_level_analytic = [&](std::uint64_t width, std::uint64_t depth,
                                  trace::SpanId phase_span) {
        HPU_CHECK(width > 0, "analytic level width must be positive");
        const std::vector<model::ObservedTask> est(
            width, model::ObservedTask{alg.analytic_task_cost(n, depth), n / width});
        std::vector<sim::ItemAccessLog> no_logs;
        run_level(est, depth, phase_span, 1.0, no_logs, nullptr);
    };

    // ---- root pass (functional only: the analytic path never touches data)
    std::vector<irr_detail::LevelRecord> levels;
    if (opts.functional) {
        const std::uint64_t w0 = rt.wall_start();
        sim::OpCounter pre;
        TaskList root = alg.root_tasks(data, pre);
        const sim::Ticks t =
            detail::host_pass(pre, cpu.params(), alg.name(), "pre", rt.moved(clock), w0);
        rep.cpu_busy += t;
        clock += t;
        levels.push_back({std::move(root), {}});
    }

    // ---- boundary ship-in (kGpu only; kBasic pays residency switches)
    if (mode == IrregularMode::kGpu && include_transfers) {
        const sim::Ticks x = hw.link.transfer_time(n);
        detail::trace_transfer(rt.moved(clock), alg.name(), "xfer-in", n, n * sizeof(T), x);
        rep.transfer += x;
        clock += x;
        on_device = true;
    }

    // ---- expand sweep
    if (opts.functional) {
        const trace::SpanId expand =
            detail::open_phase(opts, run, alg.name(), "expand", trace::Unit::kHost, clock);
        std::uint64_t depth = 0;
        while (true) {
            HPU_CHECK(depth < alg.max_levels(n),
                      "irregular expansion exceeded max_levels — runaway divide_task?");
            const std::uint64_t width = levels[depth].list.width();
            rep.tasks_spawned += width;
            std::vector<std::vector<TaskDesc>> kids(width);
            run_level_functional(levels[depth].list, depth, "divide", /*combine=*/false,
                                 expand, [&](std::uint64_t j, sim::OpCounter& ops) {
                                     alg.divide_task(data, levels[depth].list.tasks[j], depth,
                                                     kids[j], ops);
                                 });
            std::vector<std::uint64_t>& off = levels[depth].child_off;
            off.assign(width + 1, 0);
            for (std::uint64_t j = 0; j < width; ++j) off[j + 1] = off[j] + kids[j].size();
            TaskList next;
            next.tasks.reserve(off[width]);
            for (const std::vector<TaskDesc>& kv : kids) {
                next.tasks.insert(next.tasks.end(), kv.begin(), kv.end());
            }
            if (next.empty()) break;
            levels.push_back({std::move(next), {}});
            ++depth;
        }
        detail::close_phase(opts, expand, clock);
    } else {
        const std::vector<std::uint64_t> widths = alg.analytic_widths(n);
        HPU_CHECK(!widths.empty(), "analytic_widths must describe at least one level");
        const trace::SpanId expand =
            detail::open_phase(opts, run, alg.name(), "expand", trace::Unit::kHost, clock);
        for (std::uint64_t i = 0; i < widths.size(); ++i) {
            rep.tasks_spawned += widths[i];
            run_level_analytic(widths[i], i, expand);
        }
        detail::close_phase(opts, expand, clock);

        if (alg.has_combine()) {
            const trace::SpanId comb = detail::open_phase(opts, run, alg.name(), "combine",
                                                          trace::Unit::kHost, clock);
            for (std::uint64_t i = widths.size(); i-- > 0;) run_level_analytic(widths[i], i, comb);
            detail::close_phase(opts, comb, clock);
        }
    }

    // ---- combine sweep (functional)
    if (opts.functional && alg.has_combine() && !levels.empty()) {
        const trace::SpanId comb =
            detail::open_phase(opts, run, alg.name(), "combine", trace::Unit::kHost, clock);
        for (std::uint64_t i = levels.size(); i-- > 0;) {
            const TaskList& list = levels[i].list;
            const std::vector<std::uint64_t>& off = levels[i].child_off;
            const std::vector<TaskDesc>* next =
                (i + 1 < levels.size()) ? &levels[i + 1].list.tasks : nullptr;
            run_level_functional(list, i, "combine", /*combine=*/true, comb,
                                 [&](std::uint64_t j, sim::OpCounter& ops) {
                                     std::span<const TaskDesc> ch;
                                     if (next != nullptr && off[j + 1] > off[j]) {
                                         ch = std::span<const TaskDesc>(
                                             next->data() + off[j], off[j + 1] - off[j]);
                                     }
                                     alg.combine_task(data, list.tasks[j], i, ch, ops);
                                 });
        }
        detail::close_phase(opts, comb, clock);
    }

    // ---- boundary ship-out (the array must end host-resident)
    if (on_device && include_transfers) {
        const sim::Ticks x = hw.link.transfer_time(n);
        detail::trace_transfer(rt.moved(clock), alg.name(), "xfer-out", n, n * sizeof(T), x);
        rep.transfer += x;
        clock += x;
        on_device = false;
    }

    // ---- finalize (functional host wrap-up)
    if (opts.functional) {
        const std::uint64_t w0 = rt.wall_start();
        sim::OpCounter fin;
        alg.finalize(data, fin);
        const sim::Ticks t = detail::host_pass(fin, cpu.params(), alg.name(), "finalize",
                                               rt.moved(clock), w0);
        rep.cpu_busy += t;
        clock += t;
    }

    if (hybrid && total_est_work > 0.0) rep.alpha_effective = cpu_est_work / total_est_work;
    rep.total = clock;
    detail::close_run(opts, run, rep.total);
    return rep;
}

}  // namespace hpu::core
