// The expand/combine sweeps of a dynamic tree: how detail::run_plan runs a
// dynamic plan (a plan with no climbs, core/plan.hpp) of an
// IrregularLevelAlgorithm, whose recursion tree is produced as it runs —
// variable arity, uneven extents, empty branches, early termination.
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
// launch primitive the plan walker uses (core/launch.hpp), inside
// run_plan's frame (prepare, bind, verify, validation context, run span);
// only the sweeps and the per-level scheduling below are specific to
// dynamic trees.
//
// Scheduling: the closed-form (α, y) plans of §5 assume level i has a^i
// equal tasks, which a dynamic tree does not honor. The plan's shape is
// therefore a per-level policy, re-derived from the observed task list
// (model/observed.hpp): kSplit chooses the prefix k that minimizes the
// estimated level makespan (the per-level α re-balance), kBasic places
// whole levels on the cheaper unit including the residency switch
// transfer. Both price each task by its task_charge — exactly what its
// body will charge — so a kSplit level is never slower than the same
// level all on the CPU (DESIGN.md §14). A level's device part is one
// launch, so a pipelined run has nothing to chunk. Decisions are pure
// functions of (hardware, task descriptors), so pooled and inline runs
// schedule — and therefore time — identically.
//
// The levels do not run through the walker's lanes, whose clocks, busy
// sums and device slice would not reproduce these numbers bit for bit
// (DESIGN.md §14).
//
// Correctness machinery on the dynamic path:
//  - verify: a data-dependent tree cannot declare static footprints, so
//    verify::verify_plan attaches a downgrade certificate (all phases
//    kUnknown + a kDynamicFootprint finding): the exact runtime checks
//    stay on.
//  - validate: per dynamic level, declared extents are checked pairwise
//    disjoint (analysis::detect_extent_overlaps) and the logged accesses
//    of ALL the level's tasks go through the exact race detector with the
//    full width as the concurrency window (CPU and GPU parts of a split
//    level overlap in virtual time). The schedule-independence re-run and
//    the executed-schedule check of the regular path do not apply (divide
//    bodies mutate the frontier; the levels are not walker steps).
//  - trace: run → phase(expand/combine) → level(+waves) spans; level
//    spans carry the level's extent_words and imbalance attributes.
//  - obs: skipped — the observation's drift model assumes the regular
//    recurrence shape; ExecReport::obs stays attempted=false.
//
// Functional execution happens in host memory (like every functional path
// of the simulator); transfer time is charged per the shape: kGpu ships the
// array across the boundary once each way, kBasic pays residency switches,
// kSplit ships each level's device part in before its launch and out after
// it.
//
// Analytic mode prices the tree from analytic_widths(n) — task bodies do
// not run (root_tasks/finalize included), data is untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/launch.hpp"
#include "core/plan.hpp"
#include "model/observed.hpp"

namespace hpu::core::detail {

/// One recorded level of the expand sweep: its task list plus, per task,
/// the offset of its children in the NEXT level's list (prefix sums,
/// child_off.size() == width + 1).
struct LevelRecord {
    TaskList list;
    std::vector<std::uint64_t> child_off;
};

inline double est_sum(std::span<const model::ObservedTask> est, std::uint64_t b,
                      std::uint64_t e) {
    double s = 0.0;
    for (std::uint64_t j = b; j < e; ++j) s += est[j].cost;
    return s;
}

inline std::uint64_t est_words(std::span<const model::ObservedTask> est, std::uint64_t b,
                               std::uint64_t e) {
    std::uint64_t w = 0;
    for (std::uint64_t j = b; j < e; ++j) w += est[j].words;
    return w;
}

/// The expand sweep's child slots: uninitialised storage, so a level only
/// touches the slots its divides fill. Grows geometrically and never
/// copies — a level's slots are dead once its children are listed.
class SlotBuffer {
public:
    SlotBuffer() = default;
    SlotBuffer(const SlotBuffer&) = delete;
    SlotBuffer& operator=(const SlotBuffer&) = delete;
    ~SlotBuffer() {
        if (data_ != nullptr) std::allocator<TaskDesc>().deallocate(data_, capacity_);
    }

    /// At least `n` slots; earlier contents are lost.
    TaskDesc* reserve(std::uint64_t n) {
        if (n > capacity_) {
            if (data_ != nullptr) std::allocator<TaskDesc>().deallocate(data_, capacity_);
            capacity_ = std::max(n, 2 * capacity_);
            data_ = std::allocator<TaskDesc>().allocate(capacity_);
        }
        return data_;
    }

private:
    TaskDesc* data_ = nullptr;
    std::uint64_t capacity_ = 0;
};

/// Runs (functional) or prices (analytic) one dynamic plan, filling `rep`
/// on a level-synchronous clock: each level starts when the previous one
/// ended on both units.
template <typename T>
struct Sweeps {
    const Plan& plan;
    const LevelAlgorithm<T>& alg;
    sim::CpuUnit& cpu;
    sim::Device* dev;
    const sim::HpuParams& hw;
    const ExecOptions& opts;
    ValCtx val;
    std::span<T> data;
    ExecReport& rep;
    const IrregularLevelAlgorithm<T>* tree = alg.as_irregular();
    double mult = alg.device_ops_multiplier(hw.gpu);
    sim::Ticks clock = 0.0;
    double cpu_est_work = 0.0, total_est_work = 0.0;
    bool on_device = false;  ///< where the frontier lives (kGpu, kBasic)
    /// Per-task predictions of the current level, reused across levels.
    std::vector<model::ObservedTask> pred{};
    /// The buffers of the splits and placements, reused across levels.
    model::SplitScratch split{};

    void run(trace::SpanId run_span) {
        HPU_CHECK(tree != nullptr, alg.name() + " has no dynamic tree for a plan without climbs");
        const std::uint64_t n = data.size();
        const SpanCtx rt{opts.trace, run_span, 0.0, trace::SpanAttrs::kNoLevel, opts.profile};
        rep.chunks = plan.chunks;

        // ---- root pass (functional only: the analytic path never touches data)
        std::vector<LevelRecord> levels;
        if (opts.functional) {
            const std::uint64_t w0 = rt.wall_start();
            sim::OpCounter pre;
            levels.push_back({tree->root_tasks(data, pre), {}});
            clock += host_step(pre, "pre", rt, w0);
        }

        // ---- boundary ship-in (kGpu only; kBasic pays residency switches)
        if (plan.shape == PlanShape::kGpu && plan.ship) {
            clock += ship(rt.moved(clock), "xfer-in", n);
            on_device = true;
        }

        if (opts.functional) {
            expand(levels, run_span);
            if (tree->has_combine()) combine(levels, run_span);
        } else {
            const std::vector<std::uint64_t> widths = tree->analytic_widths(n);
            HPU_CHECK(!widths.empty(), "analytic_widths must describe at least one level");
            in_phase(run_span, "expand", [&](trace::SpanId phase) {
                for (std::uint64_t i = 0; i < widths.size(); ++i) {
                    rep.tasks_spawned += widths[i];
                    analytic_level(widths[i], i, phase);
                }
            });
            if (tree->has_combine()) {
                in_phase(run_span, "combine", [&](trace::SpanId phase) {
                    for (std::uint64_t i = widths.size(); i-- > 0;) {
                        analytic_level(widths[i], i, phase);
                    }
                });
            }
        }

        // ---- boundary ship-out (the array must end host-resident)
        if (on_device) {
            clock += ship(rt.moved(clock), "xfer-out", n);
            on_device = false;
        }

        // ---- finalize (functional host wrap-up)
        if (opts.functional) {
            const std::uint64_t w0 = rt.wall_start();
            sim::OpCounter fin;
            tree->finalize(data, fin);
            clock += host_step(fin, "finalize", rt, w0);
        }

        const bool hybrid = plan.shape == PlanShape::kBasic || plan.shape == PlanShape::kSplit;
        if (hybrid && total_est_work > 0.0) rep.alpha_effective = cpu_est_work / total_est_work;
        rep.total = clock;
    }

    /// Runs `fn(phase)` inside a sweep's phase span, opened and closed at
    /// the clock.
    template <typename Fn>
    void in_phase(trace::SpanId run_span, const char* what, Fn&& fn) {
        const trace::SpanId phase =
            open_phase(opts, run_span, alg.name(), what, trace::Unit::kHost, clock);
        fn(phase);
        close_phase(opts, phase, clock);
    }

    /// A host pass at the clock, charged to the CPU; returns its time.
    sim::Ticks host_step(const sim::OpCounter& ops, const char* what, const SpanCtx& rt,
                         std::uint64_t w0) {
        const sim::Ticks t = host_pass(ops, cpu.params(), alg.name(), what, rt.moved(clock), w0);
        rep.cpu_busy += t;
        return t;
    }

    /// One link transfer of `words` elements, traced at `tc`; returns its
    /// time. Every transfer of the sweeps goes through here: the boundary
    /// in and out, the residency switch, and a level's in and out.
    sim::Ticks ship(const SpanCtx& tc, const char* what, std::uint64_t words) {
        const sim::Ticks x = hw.link.transfer_time(words);
        trace_transfer(tc, alg.name(), what, words, words * sizeof(T), x);
        rep.transfer += x;
        return x;
    }

    /// The plan's policy for one level of `width` tasks over `words` words:
    /// the prefix [0, k) runs on the CPU, [k, W) on the device. kBasic
    /// places the whole level and pays a residency switch at `tc`; it and
    /// kSplit decide from the per-task predictions `est`, which the other
    /// shapes do not read.
    std::uint64_t cpu_prefix(std::span<const model::ObservedTask> est, std::uint64_t width,
                             std::uint64_t words, const SpanCtx& tc) {
        if (plan.shape == PlanShape::kCpu) return width;
        if (plan.shape == PlanShape::kGpu) return 0;
        std::uint64_t k = width;
        if (plan.shape == PlanShape::kBasic) {
            const sim::Ticks sw = hw.link.transfer_time(words);
            const auto pl = model::place_observed_level(hw, est, mult, on_device ? sw : 0.0,
                                                        on_device ? 0.0 : sw, split);
            const bool to_device = pl.unit == model::LevelPlacement::kGpu;
            if (to_device) k = 0;
            if (to_device != on_device && sw > 0.0) {
                clock += ship(tc, to_device ? "xfer-in" : "xfer-out", words);
            }
            on_device = to_device;
        } else {
            k = model::split_observed_level(hw, est, mult, /*include_transfers=*/true, split)
                    .cpu_tasks;
        }
        cpu_est_work += est_sum(est, 0, k);
        total_est_work += est_sum(est, 0, width);
        return k;
    }

    /// Schedules one level of `width` tasks over `words` words and runs its
    /// CPU part [0, k) and device part [k, W) through the launch primitive
    /// — functionally with `body(j, ops)` executing task j, priced from the
    /// (uniform) predictions when `body` is nullptr — then advances the
    /// clock by the level makespan. A kSplit level brackets its device part
    /// with the transfers of the part's words in and back out.
    template <typename Body>
    void level(std::span<const model::ObservedTask> est, std::uint64_t width,
               std::uint64_t words, std::uint64_t depth, trace::SpanId phase, double imb,
               std::vector<sim::ItemAccessLog>& logs, Body&& body) {
        const SpanCtx tc{opts.trace, phase, clock, depth, opts.profile};
        const std::uint64_t k = cpu_prefix(est, width, words, tc);
        const std::uint64_t cpu_words = k == width ? words : est_words(est, 0, k);
        const sim::Ticks level_start = clock;
        // Tasks [b, e) of the level, covering `part_words` words, on `unit`,
        // starting `at` into the level.
        auto part = [&](trace::Unit unit, std::uint64_t b, std::uint64_t e,
                        std::uint64_t part_words, sim::Ticks at) {
            const bool gpu = unit == trace::Unit::kGpu;
            Launch l;
            l.unit = unit;
            l.phase = gpu ? "gpu-level" : "cpu-level";
            l.tasks = e - b;
            l.intra = alg.intra_task_parallel();
            l.extent_words = part_words;
            l.imbalance = imb;
            if (!gpu) l.working_set = alg.level_working_set_bytes(l.extent_words);
            const SpanCtx pt = tc.moved(at, depth);
            if constexpr (std::is_null_pointer_v<std::remove_cvref_t<Body>>) {
                const double cost = est[b].cost;
                l.task_ops = gpu ? cost * mult : cost;
                l.work = cost * static_cast<double>(l.tasks);
                l.ops = gpu ? l.work * mult : l.work;
                return launch(cpu, dev, alg, l, pt, nullptr).time;
            } else {
                return launch(cpu, dev, alg, l, pt,
                              [&](std::uint64_t j, sim::OpCounter& ops) {
                                  if (!logs.empty()) ops.trace = &logs[b + j];
                                  body(b + j, ops);
                              })
                    .time;
            }
        };
        sim::Ticks cpu_time = 0.0, gpu_path = 0.0;
        if (k > 0) {
            cpu_time = part(trace::Unit::kCpu, 0, k, cpu_words, level_start);
            rep.cpu_busy += cpu_time;
            ++rep.levels_cpu;
        }
        if (k < width) {
            const bool shipped = plan.shape == PlanShape::kSplit;
            const std::uint64_t gpu_words = words - cpu_words;
            if (shipped) gpu_path = ship(tc.moved(level_start, depth), "xfer-in", gpu_words);
            const sim::Ticks t =
                part(trace::Unit::kGpu, k, width, gpu_words, level_start + gpu_path);
            rep.gpu_busy += t;
            ++rep.levels_gpu;
            gpu_path += t;
            if (shipped) {
                gpu_path += ship(tc.moved(level_start + gpu_path, depth), "xfer-out", gpu_words);
            }
        }
        clock = level_start + std::max(cpu_time, gpu_path);
    }

    /// Runs one functional level of `list`; `body(j, ops)` executes task
    /// j's divide/combine. The shapes that split a level (kSplit, kBasic)
    /// first predict each task's charge from its task_charge: its CPU ops
    /// and its device ops, priced as the device will charge them.
    template <typename Body>
    void functional_level(const TaskList& list, std::uint64_t depth, const char* sweep,
                          bool combine, trace::SpanId phase, Body&& body) {
        const std::uint64_t width = list.width();
        if (width == 0) return;
        std::span<const model::ObservedTask> est;
        if (plan.shape == PlanShape::kSplit || plan.shape == PlanShape::kBasic) {
            pred.resize(width);
            for (std::uint64_t j = 0; j < width; ++j) {
                const TaskDesc& t = list.tasks[j];
                const sim::OpCounter c = tree->task_charge(t, combine);
                pred[j] = model::ObservedTask{static_cast<double>(c.cpu_ops()), t.size(),
                                              c.gpu_ops(hw.gpu.strided_penalty)};
            }
            est = pred;
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
        level(est, width, list.extent_words(), depth, phase, list.imbalance(), logs, body);
        if (val.on()) {
            // CPU and GPU parts of a split level overlap in virtual time,
            // so the whole width is one concurrency window.
            analysis::detect_races(logs, width, label, *val.report, val.race);
        }
    }

    /// Analytic twin: prices one uniform level of `width` tasks without
    /// executing anything.
    void analytic_level(std::uint64_t width, std::uint64_t depth, trace::SpanId phase) {
        HPU_CHECK(width > 0, "analytic level width must be positive");
        const std::uint64_t n = data.size();
        pred.assign(width, model::ObservedTask{tree->analytic_task_cost(n, depth), n / width});
        std::vector<sim::ItemAccessLog> no_logs;
        level(pred, width, width * (n / width), depth, phase, 1.0, no_logs, nullptr);
    }

    /// The functional expand sweep from the root level `levels[0]`,
    /// recording every level it reaches. Task j of a level appends its
    /// children into the flat slots [j·a, j·a + a) and records their count
    /// in child_off[j + 1]; the counts become offsets and the filled slots,
    /// in task order, the next level's list.
    void expand(std::vector<LevelRecord>& levels, trace::SpanId run_span) {
        in_phase(run_span, "expand", [&](trace::SpanId phase) {
            const std::uint64_t a = alg.a();
            SlotBuffer slots;
            for (std::uint64_t depth = 0;; ++depth) {
                HPU_CHECK(depth < tree->max_levels(data.size()),
                          "irregular expansion exceeded max_levels — runaway divide_task?");
                const TaskList& list = levels[depth].list;
                const std::uint64_t width = list.width();
                rep.tasks_spawned += width;
                TaskDesc* const kids = slots.reserve(width * a);
                std::vector<std::uint64_t>& off = levels[depth].child_off;
                off.assign(width + 1, 0);
                functional_level(list, depth, "divide", /*combine=*/false, phase,
                                 [&](std::uint64_t j, sim::OpCounter& ops) {
                                     ChildSlots ch(kids + j * a, a);
                                     tree->divide_task(data, list.tasks[j], depth, ch, ops);
                                     off[j + 1] = ch.size();
                                 });
                for (std::uint64_t j = 0; j < width; ++j) off[j + 1] += off[j];
                TaskList next;
                next.tasks.reserve(off[width]);
                for (std::uint64_t j = 0; j < width; ++j) {
                    next.tasks.insert(next.tasks.end(), kids + j * a,
                                      kids + j * a + (off[j + 1] - off[j]));
                }
                if (next.empty()) break;
                levels.push_back({std::move(next), {}});
            }
        });
    }

    /// The functional combine sweep, bottom-up over the recorded levels.
    void combine(const std::vector<LevelRecord>& levels, trace::SpanId run_span) {
        in_phase(run_span, "combine", [&](trace::SpanId phase) {
            for (std::uint64_t i = levels.size(); i-- > 0;) {
                const TaskList& list = levels[i].list;
                const std::vector<std::uint64_t>& off = levels[i].child_off;
                const std::vector<TaskDesc>* next =
                    (i + 1 < levels.size()) ? &levels[i + 1].list.tasks : nullptr;
                functional_level(list, i, "combine", /*combine=*/true, phase,
                                 [&](std::uint64_t j, sim::OpCounter& ops) {
                                     std::span<const TaskDesc> ch;
                                     if (next != nullptr && off[j + 1] > off[j]) {
                                         ch = std::span<const TaskDesc>(next->data() + off[j],
                                                                        off[j + 1] - off[j]);
                                     }
                                     tree->combine_task(data, list.tasks[j], i, ch, ops);
                                 });
            }
        });
    }
};

}  // namespace hpu::core::detail
