// Plans: every run as a small value, and the one walker that runs, prices
// and verifies a regular one (DESIGN.md §3.1).
//
// The paper's breadth-first form (Alg. 2) and its §5 schedulers are data:
// which unit climbs which level range of which slice, and which transfers
// bracket it. A Plan records exactly that — the CPU lane, the device lane
// (one climb per input chunk, then an optional merged stage) and the
// post-join finish lane — and four producers build one per scheduler shape:
//
//   plan_cpu        sequential / multicore: one CPU climb over the tree
//   plan_gpu        device only, bracketed by the two bulk transfers; its
//                   top levels may run element-wise (Fig. 9, §7)
//   plan_basic      §5.1: the device climbs to the crossover i*, the CPU
//                   finishes the top (falls back to plan_cpu)
//   plan_pipelined  §5.2 split at α, the device slice shipped in K chunks
//                   (DESIGN.md §9); plan_advanced is its K = 1 case
//
// detail::Walker runs a plan functionally or prices it analytically, one
// detail::launch per level, recording the span tree as it goes, and on
// request logs every launch and transfer as a flat verify::SchedulePlan:
// price_plan() prices a plan into the list the static verifier checks,
// and a validated run checks the list it executed with the same checker
// (verify::check_plan). The executors, the verifier and the pipelined
// never-worse guard therefore all read the same plan: the schedule exists
// once.
//
// A dynamic tree (IrregularLevelAlgorithm) has no levels to climb before
// it runs: each producer hands it a plan with no climbs whose shape is the
// per-level policy of its sweeps (core/irregular.hpp) — kCpu, kGpu (`ship`
// = the boundary transfers), kBasic (whole-level placement) or kSplit (the
// observed per-level split). It ignores (α, y) unchecked.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/schedule.hpp"
#include "core/launch.hpp"
#include "model/basic.hpp"
#include "sim/buffer.hpp"
#include "sim/params.hpp"
#include "verify/schedule.hpp"

namespace hpu::core {

/// Which report formula a plan keeps. The shapes sum the same phases in
/// different orders, and the floating-point order is part of the
/// reproduced output.
enum class PlanShape : std::uint8_t {
    kCpu,    ///< one CPU lane; total = its clock
    kGpu,    ///< device lane; total = cpu + gpu + transfer
    kBasic,  ///< device lane, then a CPU lane; total = gpu + cpu + transfer
    kSplit,  ///< concurrent device and CPU lanes, join, finish lane
};

/// One unit's climb over one slice of the array: an optional leaf sweep,
/// then levels from-1 down to `to` (none when from == to). A level with no
/// whole task inside the slice is skipped.
struct Climb {
    std::uint64_t offset = 0;  ///< first element of the slice
    std::uint64_t words = 0;   ///< slice length
    bool leaves = false;
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    /// Device: the pipelined merged stage, whose hooks are labelled
    /// "gpu-merge-hook" and which charges the analytic post-hook.
    bool merge = false;
    /// Device, analytic mode: charge the algorithm's hook estimate first.
    bool priced_hooks = false;
    /// Device: levels elementwise-1..to run element-wise, one work-item
    /// per element instead of one per task (0 = none). The hooks belong to
    /// the per-task levels; a climb without one runs none.
    std::uint64_t elementwise = 0;
};

/// One run of one executor.
struct Plan {
    PlanShape shape = PlanShape::kCpu;
    const char* executor = "";  ///< run label
    std::uint64_t n = 0;        ///< input elements
    std::uint64_t a = 2;        ///< branching factor (a == b)
    std::vector<Climb> cpu;     ///< CPU lane (concurrent with the device in kSplit)
    /// Device lane: one climb per input chunk, then at most one merge climb.
    std::vector<Climb> gpu;
    std::vector<Climb> finish;  ///< CPU lane after the join (kSplit)
    std::uint64_t device_offset = 0;  ///< the device owns [device_offset, n)
    bool ship = false;      ///< the device lane ships its slice in and back
    /// Pipelined: a transfer is priced end − start on the link's clock
    /// (else λ + δ·w) and labelled "-chunk", and without a merged
    /// stage the results ship back chunk by chunk. How the lane moves its
    /// data does not depend on it.
    bool streamed = false;
    double alpha_effective = 0.0;  ///< ExecReport::alpha_effective
    std::uint64_t chunks = 0;      ///< ExecReport::chunks
    /// Pipelined never-worse guard: the priced device lane with the chosen
    /// chunks and with one chunk (both 0 when only one chunk was possible).
    sim::Ticks est_chosen = 0.0;
    sim::Ticks est_mono = 0.0;

    std::uint64_t task_size(std::uint64_t level) const {
        return n / util::ipow(a, static_cast<std::uint32_t>(level));
    }
    /// A dynamic tree's plan: no climbs; `shape` is the sweeps' per-level
    /// policy (core/irregular.hpp).
    bool dynamic() const { return cpu.empty() && gpu.empty(); }
};

namespace detail {

/// A lane's clock. `origin` is the span tick of the lane's zero, `at` the
/// lane clock where the current climb started and `k` the time into it.
/// The shapes associate the same sums differently, so a lane also says how
/// a step's span start is formed:
///   kFlat   origin + (at − origin), every step advancing `at`
///   kSlice  (origin + at) + k       CPU slices of the hybrids
///   kChunk  origin + (at + k)       device chunks of the hybrids
struct Cursor {
    enum class Mode : std::uint8_t { kFlat, kSlice, kChunk };
    Mode mode = Mode::kFlat;
    sim::Ticks origin = 0.0;
    sim::Ticks at = 0.0;
    sim::Ticks k = 0.0;

    sim::Ticks now() const {
        if (mode == Mode::kFlat) return origin + (at - origin);
        if (mode == Mode::kSlice) return (origin + at) + k;
        return origin + (at + k);
    }
    void advance(sim::Ticks t) {
        k += t;
        if (mode == Mode::kFlat) at += t;
    }
    /// Lane clock at the end of the current climb.
    sim::Ticks end() const { return mode == Mode::kFlat ? at : at + k; }
    /// Starts the next climb at lane clock `t`.
    void restart(sim::Ticks t) {
        at = t;
        k = 0.0;
    }
};

/// Runs (functional) or prices (analytic) one plan, filling `rep`. With
/// `events` set, every launch and transfer it runs or prices is also
/// logged as a verify::PlanEvent on the run's clock.
template <typename T>
struct Walker {
    const Plan& plan;
    const LevelAlgorithm<T>& alg;
    sim::CpuUnit& cpu;
    sim::Device* dev;
    const sim::LinkParams& link;
    const ExecOptions& opts;
    ValCtx val;
    std::span<T> data;  ///< the whole array (functional mode)
    ExecReport& rep;
    verify::SchedulePlan* events = nullptr;

    void walk(sim::Ticks pre, trace::SpanId run) {
        const std::string& name = alg.name();
        switch (plan.shape) {
            case PlanShape::kCpu:
                rep.cpu_busy = cpu_lane(plan.cpu, {Cursor::Mode::kFlat, 0.0, pre}, run);
                rep.total = rep.cpu_busy;
                break;
            case PlanShape::kGpu:
                rep.cpu_busy = pre;
                device_lane({Cursor::Mode::kFlat, 0.0, pre}, run);
                rep.total = rep.cpu_busy + rep.gpu_busy + rep.transfer;
                break;
            case PlanShape::kBasic: {
                rep.cpu_busy = pre;
                const trace::SpanId gphase =
                    open_phase(opts, run, name, "gpu-phase", trace::Unit::kGpu, pre);
                const sim::Ticks gend = device_lane({Cursor::Mode::kFlat, pre, pre}, gphase);
                close_phase(opts, gphase, gend);
                if (!plan.cpu.empty()) {
                    const trace::SpanId cphase =
                        open_phase(opts, run, name, "cpu-levels", trace::Unit::kCpu, gend);
                    const sim::Ticks part =
                        cpu_lane(plan.cpu, {Cursor::Mode::kSlice, gend, 0.0}, cphase);
                    rep.cpu_busy += part;
                    close_phase(opts, cphase, gend + part);
                }
                rep.total = rep.gpu_busy + rep.cpu_busy + rep.transfer;
                break;
            }
            case PlanShape::kSplit: {
                rep.alpha_effective = plan.alpha_effective;
                rep.chunks = plan.chunks;
                const trace::SpanId gphase =
                    open_phase(opts, run, name, "gpu-phase", trace::Unit::kGpu, pre);
                const sim::Ticks gpu_clock =
                    device_lane({Cursor::Mode::kChunk, pre, 0.0}, gphase);
                close_phase(opts, gphase, pre + gpu_clock);
                const trace::SpanId cphase =
                    open_phase(opts, run, name, "cpu-parallel", trace::Unit::kCpu, pre);
                const sim::Ticks cpu_clock =
                    cpu_lane(plan.cpu, {Cursor::Mode::kSlice, pre, 0.0}, cphase);
                rep.cpu_busy = cpu_clock;
                close_phase(opts, cphase, pre + cpu_clock);
                // Join: both lanes done, the device slice back on the host.
                const sim::Ticks sync = std::max(gpu_clock, cpu_clock);
                const trace::SpanId fphase =
                    open_phase(opts, run, name, "finish", trace::Unit::kCpu, pre + sync);
                const sim::Ticks fin =
                    cpu_lane(plan.finish, {Cursor::Mode::kSlice, pre + sync, 0.0}, fphase);
                rep.finish = fin;
                close_phase(opts, fphase, pre + sync + fin);
                rep.total = pre + sync + fin;
                break;
            }
        }
    }

    /// Climbs `climbs` one after the other on the CPU; returns the lane
    /// clock at the end.
    sim::Ticks cpu_lane(const std::vector<Climb>& climbs, Cursor cur, trace::SpanId parent) {
        for (const Climb& c : climbs) {
            const std::span<T> region =
                opts.functional ? data.subspan(c.offset, c.words) : std::span<T>{};
            if (c.leaves) cur.advance(leaves(trace::Unit::kCpu, c, region, cur, parent));
            for (std::uint64_t i = c.from; i-- > c.to;) {
                const std::uint64_t tasks = c.words / plan.task_size(i);
                if (tasks == 0) continue;
                cur.advance(level(trace::Unit::kCpu, c, region, tasks, i, cur, parent));
                ++rep.levels_cpu;
            }
            cur.restart(cur.end());
        }
        return cur.at;
    }

    /// The device lane, on the clock `lane` starts at: each chunk ships in
    /// (queued on the link), climbs once it has arrived and the device is
    /// free, the merged stage follows, and the results ship back in bulk
    /// or chunk by chunk. Returns the lane clock the last result lands at.
    sim::Ticks device_lane(Cursor lane, trace::SpanId parent) {
        const std::string& name = alg.name();
        const SpanCtx tc{opts.trace, parent, 0.0, trace::SpanAttrs::kNoLevel, opts.profile};
        const std::uint64_t W = plan.n - plan.device_offset;
        sim::Ticks gpu_free = lane.at;
        // The link is one FIFO resource (§9): a transfer starts once its
        // words are ready and the link has carried everything queued before
        // it, and lasts λ + δ·w.
        sim::Ticks link_free = lane.at;

        // A functional run streams the caller's slice through one device
        // copy; analytic runs never touch data.
        std::optional<sim::DeviceBuffer<T>> buf;
        if (opts.functional) buf.emplace(data.subspan(plan.device_offset));
        // Moves [offset, offset + words) of the slice.
        auto move_words = [&](bool in, std::uint64_t offset, std::uint64_t words) {
            if (!buf) return;
            if (in) buf->stream_to_device(offset, words);
            else buf->stream_to_host(offset, words);
        };

        // One link transfer of [offset, offset + words) of the slice, ready
        // at `ready`: queues on the link; returns its end.
        auto transfer = [&](bool in, const char* what, std::uint64_t offset,
                            std::uint64_t words, sim::Ticks ready) {
            const std::uint64_t w0 = tc.wall_start();
            const sim::Ticks x = link.transfer_time(words);
            const sim::Ticks start = std::max(ready, link_free);
            link_free = start + x;
            move_words(in, offset, words);
            const sim::Ticks dur = plan.streamed ? link_free - start : x;
            rep.transfer += dur;
            Cursor at = lane;
            at.restart(start);
            trace_transfer(tc.moved(at.now()), name, what, words, words * sizeof(T), dur, w0);
            if (events != nullptr) {
                events->events.push_back({verify::PlanEvent::Unit::kLink,
                                          in ? verify::PlanEvent::Kind::kXferIn
                                             : verify::PlanEvent::Kind::kXferOut,
                                          at.now(), x, 0, plan.device_offset + offset, words,
                                          0.0, what});
            }
            return link_free;
        };

        // Without link transfers the slice still moves, in zero time.
        if (!plan.ship) move_words(true, 0, W);
        std::vector<sim::Ticks> arrived(plan.gpu.size(), lane.at);
        for (std::size_t c = 0; c < plan.gpu.size(); ++c) {
            const Climb& ch = plan.gpu[c];
            if (ch.merge || !plan.ship) continue;
            arrived[c] = transfer(true, plan.streamed ? "xfer-in-chunk" : "xfer-in",
                                  ch.offset - plan.device_offset, ch.words, lane.at);
        }

        std::vector<sim::Ticks> done(plan.gpu.size(), lane.at);
        for (std::size_t c = 0; c < plan.gpu.size(); ++c) {
            const Climb& ch = plan.gpu[c];
            Cursor cur = lane;
            cur.restart(ch.merge ? gpu_free : std::max(gpu_free, arrived[c]));
            const std::span<T> dspan =
                buf ? buf->device_region(ch.offset - plan.device_offset, ch.words)
                    : std::span<T>{};
            device_climb(ch, dspan, cur, parent, c == 0 || ch.merge);
            rep.gpu_busy += cur.k;
            done[c] = cur.end();
            gpu_free = done[c];
        }

        sim::Ticks end = gpu_free;
        if (!plan.ship) {
            move_words(false, 0, W);
        } else if (plan.gpu.back().merge || !plan.streamed) {
            end = transfer(false, "xfer-out", 0, W, gpu_free);
        } else {
            for (std::size_t c = 0; c < plan.gpu.size(); ++c) {
                const Climb& ch = plan.gpu[c];
                end = transfer(false, "xfer-out-chunk", ch.offset - plan.device_offset,
                               ch.words, done[c]);
            }
        }
        return end;
    }

    /// One device climb: pre-hook, leaves, per-task levels (each followed
    /// by its hook), post-hook, then the element-wise levels. `count` adds
    /// its levels to ExecReport::levels_gpu (the chunks after the first
    /// repeat the first one's levels).
    void device_climb(const Climb& c, std::span<T> dspan, Cursor& cur, trace::SpanId parent,
                      bool count) {
        // Per-task levels from-1..cut, element-wise levels cut-1..to.
        const std::uint64_t cut = std::clamp(c.elementwise, c.to, c.from);
        const bool hooks = c.elementwise < c.from;
        if (hooks && opts.functional) {
            hook(c.merge ? "gpu-merge-hook" : "gpu-pre-hook", cur, parent,
                 [&](sim::OpCounter& ops) {
                     alg.before_gpu_levels(dspan, c.words / plan.task_size(c.from - 1), ops);
                 });
        } else if (hooks && c.priced_hooks) {
            priced_hook(c.merge ? "gpu-merge-hook" : "gpu-hooks", c.words, cur, parent);
        }
        if (c.leaves) cur.advance(leaves(trace::Unit::kGpu, c, dspan, cur, parent));
        for (std::uint64_t i = c.from; i-- > cut;) {
            const std::uint64_t tasks = c.words / plan.task_size(i);
            if (tasks == 0) continue;
            cur.advance(level(trace::Unit::kGpu, c, dspan, tasks, i, cur, parent));
            if (opts.functional) {
                hook("gpu-level-hook", cur, parent, [&](sim::OpCounter& ops) {
                    alg.after_gpu_level(dspan, tasks, ops);
                });
            }
            if (count) ++rep.levels_gpu;
        }
        if (hooks && opts.functional) {
            hook("gpu-post-hook", cur, parent, [&](sim::OpCounter& ops) {
                alg.after_gpu_levels(dspan, c.words / plan.task_size(cut), ops);
            });
        } else if (hooks && c.merge) {
            priced_hook("gpu-post-hook", c.words, cur, parent);
        }
        for (std::uint64_t i = cut; i-- > c.to;) {
            cur.advance(elementwise_level(c, dspan, i, cur, parent));
            if (count) ++rep.levels_gpu;
        }
    }

    /// Runs a device-side hook body and charges it.
    template <typename Fn>
    void hook(const char* what, Cursor& cur, trace::SpanId parent, Fn&& body) {
        const SpanCtx tc{opts.trace, parent, cur.now(), trace::SpanAttrs::kNoLevel,
                         opts.profile};
        const std::uint64_t w0 = tc.wall_start();
        sim::OpCounter ops;
        body(ops);
        cur.advance(traced_hook(*dev, ops, alg.name(), what, tc, w0));
    }

    /// Charges the algorithm's analytic hook estimate for `words` elements.
    void priced_hook(const char* what, std::uint64_t words, Cursor& cur, trace::SpanId parent) {
        const SpanCtx tc{opts.trace, parent, cur.now(), trace::SpanAttrs::kNoLevel,
                         opts.profile};
        cur.advance(traced_hook(*dev, alg.analytic_gpu_hook_ops(words), alg.name(), what, tc));
    }

    /// The leaf sweep of a climb's slice, one task per base block: run when
    /// the algorithm has real leaf work, priced otherwise.
    sim::Ticks leaves(trace::Unit unit, const Climb& c, std::span<T> region, const Cursor& cur,
                      trace::SpanId parent) {
        const std::uint64_t count = c.words / alg.base_size();
        if (count == 0) return 0.0;
        const bool gpu = unit == trace::Unit::kGpu;
        Launch l;
        l.unit = unit;
        l.kind = trace::SpanKind::kLeaves;
        l.phase = gpu ? "gpu-leaves" : "cpu-leaves";
        l.tasks = count;
        const SpanCtx tc{opts.trace, parent, cur.now(), trace::SpanAttrs::kNoLevel,
                         opts.profile};
        if (opts.functional && alg.has_leaf_work()) {
            return logged(l, tc, c.offset, c.words,
                          run(l, tc, verify::Phase::kLeaf, alg.base_size(),
                              [&](std::uint64_t j, sim::OpCounter& ops) {
                                  alg.run_leaf(region, count, j, ops);
                              }));
        }
        l.task_ops = alg.recurrence().leaf_cost;
        l.work = static_cast<double>(count) * l.task_ops;
        l.ops = l.work;
        return logged(l, tc, c.offset, c.words, launch(cpu, dev, alg, l, tc, nullptr));
    }

    /// Level `i` of a climb's slice, `tasks` tasks wide.
    sim::Ticks level(trace::Unit unit, const Climb& c, std::span<T> region, std::uint64_t tasks,
                     std::uint64_t i, const Cursor& cur, trace::SpanId parent) {
        const bool gpu = unit == trace::Unit::kGpu;
        Launch l;
        l.unit = unit;
        l.phase = gpu ? "gpu-level" : "cpu-level";
        l.tasks = tasks;
        l.intra = alg.intra_task_parallel();
        // LLC contention depends on the whole input's level working set,
        // also when this lane holds only a slice of it.
        if (!gpu) l.working_set = alg.level_working_set_bytes(plan.n);
        const SpanCtx tc{opts.trace, parent, cur.now(), i, opts.profile};
        const std::uint64_t words = tasks * plan.task_size(i);
        if (!opts.functional) {
            const double work = alg.recurrence().task_cost(static_cast<double>(plan.n),
                                                           static_cast<double>(i));
            l.task_ops = gpu ? work * alg.device_ops_multiplier(dev->params()) : work;
            l.work = static_cast<double>(tasks) * work;
            l.ops = static_cast<double>(tasks) * l.task_ops;
            return logged(l, tc, c.offset, words, launch(cpu, dev, alg, l, tc, nullptr));
        }
        if (!gpu) {
            return logged(l, tc, c.offset, words,
                          run(l, tc, verify::Phase::kCpuTask, region.size() / tasks,
                              [&](std::uint64_t j, sim::OpCounter& ops) {
                                  alg.run_task(region, tasks, j, ops);
                              }));
        }
        // The level runs in work-groups. Validation also re-executes it one
        // item at a time, in a permuted order, to catch order-dependent
        // kernels the declared access sets miss.
        std::vector<T> before;
        if (val.on()) before.assign(region.begin(), region.end());
        const sim::Ticks t =
            logged(l, tc, c.offset, words,
                   run(l, tc, verify::Phase::kDeviceTask, region.size() / tasks,
                       [&](std::uint64_t first, std::span<sim::OpCounter> ops) {
                           alg.run_device_group(region, tasks, first, ops);
                       }));
        if (!val.on()) return t;
        const std::vector<T> after(region.begin(), region.end());
        auto finding = analysis::check_schedule_independence(
            region, std::span<const T>(before), std::span<const T>(after), tasks,
            [&](std::uint64_t j) {
                sim::OpCounter throwaway;
                alg.run_device_task(region, tasks, j, throwaway);
            },
            /*seed=*/tasks, launch_label(alg.name(), l.phase, tasks));
        if (finding) val.report->add(std::move(*finding));
        return t;
    }

    /// Element-wise level `i` of a device climb: one work-item per element,
    /// each charging the algorithm's closed-form item price. A functional
    /// run moves the level's data host-side, then launches the charges
    /// alone, so validation has no item body to race-check or re-execute.
    sim::Ticks elementwise_level(const Climb& c, std::span<T> region, std::uint64_t i,
                                 const Cursor& cur, trace::SpanId parent) {
        const std::uint64_t size = plan.task_size(i);
        const sim::OpCounter item = alg.elementwise_item_ops(size).value();
        Launch l;
        l.unit = trace::Unit::kGpu;
        l.phase = kElementwisePhase;
        l.tasks = c.words;
        const SpanCtx tc{opts.trace, parent, cur.now(), i, opts.profile};
        if (!opts.functional) {
            l.task_ops = item.gpu_ops(dev->params().strided_penalty);
            l.work = static_cast<double>(c.words) * static_cast<double>(item.cpu_ops());
            l.ops = static_cast<double>(c.words) * l.task_ops;
            return logged(l, tc, c.offset, c.words, launch(cpu, dev, alg, l, tc, nullptr));
        }
        const std::uint64_t w0 = tc.wall_start();
        alg.run_elementwise_level(region, c.words / size);
        const Launched out =
            launch(cpu, dev, alg, l, tc, [&](std::uint64_t, sim::OpCounter& ops) { ops += item; });
        annotate_wall(tc, out.span, w0);  // the host pass is the level's data work
        return logged(l, tc, c.offset, c.words, out);
    }

    /// One functional launch; under validation every task's accesses are
    /// logged and the launch is race-checked as `phase`.
    template <typename Body>
    Launched run(const Launch& l, const SpanCtx& tc, verify::Phase phase,
                 std::uint64_t task_size, Body&& body) {
        if (!val.on()) return launch(cpu, dev, alg, l, tc, body);
        std::vector<sim::ItemAccessLog> logs(l.tasks);
        Launched out;
        if constexpr (kGroupBody<Body>) {
            out = launch(cpu, dev, alg, l, tc,
                         [&](std::uint64_t first, std::span<sim::OpCounter> ops) {
                             for (std::size_t i = 0; i < ops.size(); ++i) {
                                 ops[i].trace = &logs[first + i];
                             }
                             body(first, ops);
                         });
        } else {
            out = launch(cpu, dev, alg, l, tc, [&](std::uint64_t j, sim::OpCounter& ops) {
                ops.trace = &logs[j];
                body(j, ops);
            });
        }
        const std::uint64_t width =
            l.unit == trace::Unit::kGpu ? dev->params().g : cpu.params().p;
        check_launch(alg, phase, logs, width, task_size,
                     launch_label(alg.name(), l.phase, l.tasks), val);
        return out;
    }

    /// The time of launch `out` over [offset, offset + words) of the array,
    /// logged first as a plan event when a checker asked for the list.
    sim::Ticks logged(const Launch& l, const SpanCtx& tc, std::uint64_t offset,
                      std::uint64_t words, const Launched& out) {
        if (events != nullptr) {
            events->events.push_back(
                {l.unit == trace::Unit::kGpu ? verify::PlanEvent::Unit::kGpu
                                             : verify::PlanEvent::Unit::kCpu,
                 l.kind == trace::SpanKind::kLeaves ? verify::PlanEvent::Kind::kLeaves
                                                    : verify::PlanEvent::Kind::kLevel,
                 tc.at, out.time, l.tasks, offset, words, out.ops,
                 std::string(l.phase) + "[" + std::to_string(l.tasks) + "]"});
        }
        return out.time;
    }
};

/// Prices the device lane of `plan` on a lane clock starting at 0.
template <typename T>
sim::Ticks priced_device_lane(const Plan& plan, const LevelAlgorithm<T>& alg,
                              const sim::HpuParams& hw) {
    sim::CpuUnit cpu(hw.cpu);
    sim::Device dev(hw.gpu);
    ExecOptions opts;
    opts.functional = false;
    opts.trace = nullptr;
    ExecReport rep;
    Walker<T> w{plan, alg, cpu, &dev, hw.link, opts, {}, {}, rep};
    return w.device_lane({Cursor::Mode::kChunk, 0.0, 0.0}, trace::kNoSpan);
}

/// One transfer chunk of the device slice: [offset, offset + words).
struct Chunk {
    std::uint64_t offset = 0;
    std::uint64_t words = 0;
};

/// Splits `region` elements into at most `k` chunks, each a multiple of
/// `quantum` (the transfer-level task size, so no task ever straddles a
/// chunk boundary at any level the chunks execute). Leading chunks take
/// the remainder quanta.
inline std::vector<Chunk> plan_chunks(std::uint64_t region, std::uint64_t quantum,
                                      std::uint64_t k) {
    const std::uint64_t slots = region / quantum;
    k = std::clamp<std::uint64_t>(k, 1, slots);
    std::vector<Chunk> chunks(k);
    std::uint64_t off = 0;
    for (std::uint64_t c = 0; c < k; ++c) {
        const std::uint64_t words = (slots / k + (c < slots % k ? 1 : 0)) * quantum;
        chunks[c] = {off, words};
        off += words;
    }
    return chunks;
}

/// The device climbs of a split plan: every chunk of the slice climbs from
/// its leaves up to level d, then (d > y) the whole slice climbs d-1..y.
inline std::vector<Climb> device_climbs(const std::vector<Chunk>& chunks, std::uint64_t offset,
                                        std::uint64_t words, std::uint64_t L, std::uint64_t d,
                                        std::uint64_t y) {
    std::vector<Climb> climbs;
    for (const Chunk& ch : chunks) {
        climbs.push_back({offset + ch.offset, ch.words, true, L, d, false, d < L});
    }
    if (d > y) climbs.push_back({offset, words, false, d, y, true, d < L});
    return climbs;
}

/// A dynamic tree's plan over `n` elements, checked admissible.
template <typename T>
Plan dynamic_plan(const LevelAlgorithm<T>& alg, std::uint64_t n, PlanShape shape,
                  const char* executor) {
    HPU_CHECK(alg.admissible(n), "input size not admissible for this algorithm");
    Plan p;
    p.shape = shape;
    p.executor = executor;
    p.n = n;
    return p;
}

}  // namespace detail

/// Sequential / multicore: the CPU climbs the whole tree.
template <typename T>
Plan plan_cpu(const LevelAlgorithm<T>& alg, std::uint64_t n, const char* executor) {
    if (alg.as_irregular() != nullptr) {
        return detail::dynamic_plan(alg, n, PlanShape::kCpu, executor);
    }
    const std::uint64_t L = detail::level_count(alg, n);
    Plan p;
    p.shape = PlanShape::kCpu;
    p.executor = executor;
    p.n = n;
    p.a = alg.a();
    p.cpu.push_back({0, n, true, L, 0});
    return p;
}

/// GPU only (§4.2): ship the array, climb every level on the device, ship
/// it back (`include_transfers` toggles the two link events). Levels
/// elementwise-1..0 run element-wise, clamped to all L: 0 is the per-task
/// climb, L the Fig. 9 mergesort, and a level between is §7's parallel
/// tail, which cuts the per-task climb there.
template <typename T>
Plan plan_gpu(const LevelAlgorithm<T>& alg, std::uint64_t n, bool include_transfers,
              std::uint64_t elementwise = 0) {
    if (alg.as_irregular() != nullptr) {
        HPU_CHECK(elementwise == 0, alg.name() + " has no element-wise form");
        Plan p = detail::dynamic_plan(alg, n, PlanShape::kGpu, "gpu");
        p.ship = include_transfers;
        return p;
    }
    const std::uint64_t L = detail::level_count(alg, n);
    const std::uint64_t s = std::min(elementwise, L);
    HPU_CHECK(s == 0 || alg.elementwise_item_ops(n).has_value(),
              alg.name() + " has no element-wise form");
    Plan p;
    p.shape = PlanShape::kGpu;
    p.executor = "gpu";
    p.n = n;
    p.a = alg.a();
    p.ship = include_transfers;
    // With no per-task level left, the leaf sweep runs only when the
    // leaves carry real work.
    p.gpu.push_back({0, n, s < L || alg.has_leaf_work(), L, 0, false, true, s});
    return p;
}

/// Basic hybrid (§5.1): the device climbs from the leaves up to the
/// crossover i* = ceil(log_a(p/γ)), the CPU climbs the rest — one round
/// trip. Falls back to the multicore plan when no level favors the device.
template <typename T>
Plan plan_basic(const LevelAlgorithm<T>& alg, std::uint64_t n, const sim::HpuParams& hw) {
    if (alg.as_irregular() != nullptr) {
        return detail::dynamic_plan(alg, n, PlanShape::kBasic, "basic-hybrid");
    }
    const std::uint64_t L = detail::level_count(alg, n);
    const auto pred = model::predict_basic(hw, alg.recurrence(), static_cast<double>(n));
    if (pred.cpu_only) return plan_cpu(alg, n, "multicore");
    // First device-free level: the shallowest level the device wins.
    const std::uint64_t top = std::min<std::uint64_t>(
        L, static_cast<std::uint64_t>(std::ceil(std::max(0.0, pred.crossover_level))));
    Plan p;
    p.shape = PlanShape::kBasic;
    p.executor = "basic-hybrid";
    p.n = n;
    p.a = alg.a();
    p.ship = true;
    // Hook costs apply only when device levels actually execute.
    p.gpu.push_back({0, n, true, L, top, false, top < L});
    if (top > 0) p.cpu.push_back({0, n, false, top, 0});
    return p;
}

/// Pipelined hybrid (§5.2 + DESIGN.md §9) at (α, transfer level y, K
/// requested chunks). The array splits at level s, the first level with at
/// least max(4p, 64) tasks (the paper's Alg. 8 `threshold`) clamped to y;
/// the CPU takes round(α·S) of its S tasks (at least one, at most S − 1).
/// The CPU climbs its slice to s; the device slice
/// ships in K chunks aligned to the level-y task size, each chunk climbs to
/// the merge level d — the shallowest level at which the smallest chunk
/// still fills the device (≥ g tasks) — and the whole slice climbs d-1..y;
/// after the join the CPU finishes the device slice's levels y-1..s and the
/// shared top s-1..0. Never-worse guard: both the K-chunk and the 1-chunk
/// device lanes are priced, and the plan keeps K chunks only on a strict
/// win, so the pipelined makespan is never worse than the advanced one.
/// A dynamic tree re-splits every level from its observed task list and
/// ships each level's device part in one launch, so there is nothing to
/// chunk: its plan reports one chunk.
template <typename T>
Plan plan_pipelined(const LevelAlgorithm<T>& alg, const sim::HpuParams& hw, std::uint64_t n,
                    double alpha, std::uint64_t y, std::uint64_t chunks) {
    const bool dynamic = alg.as_irregular() != nullptr;
    HPU_CHECK(dynamic || (alpha > 0.0 && alpha < 1.0), "alpha must be in (0, 1)");
    HPU_CHECK(chunks >= 1, "need at least one chunk");
    if (dynamic) {
        Plan p = detail::dynamic_plan(alg, n, PlanShape::kSplit, "pipelined-hybrid");
        p.chunks = 1;
        return p;
    }
    const std::uint64_t L = detail::level_count(alg, n);
    HPU_CHECK(y >= 1 && y <= L, "transfer level y must be in [1, L]");
    Plan p;
    p.shape = PlanShape::kSplit;
    p.executor = "pipelined-hybrid";
    p.n = n;
    p.a = alg.a();
    p.ship = true;
    p.streamed = true;
    auto tasks_at = [&](std::uint64_t level) {
        return util::ipow(p.a, static_cast<std::uint32_t>(level));
    };
    const std::uint64_t threshold = std::max<std::uint64_t>(4 * hw.cpu.p, 64);
    std::uint64_t s = 0;
    while (s < L && tasks_at(s) < threshold) ++s;
    s = std::min(s, y);  // the split cannot sit below the transfer level
    const std::uint64_t S = tasks_at(s);
    const std::uint64_t cpu_tasks = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(alpha * static_cast<double>(S))), 1, S - 1);
    const std::uint64_t off = cpu_tasks * (n / S);
    const std::uint64_t W = n - off;
    p.device_offset = off;
    p.alpha_effective = static_cast<double>(cpu_tasks) / static_cast<double>(S);
    p.cpu.push_back({0, off, true, L, L});
    p.cpu.push_back({0, off, false, L, s});
    if (y > s) p.finish.push_back({off, W, false, y, s});
    if (s > 0) p.finish.push_back({0, n, false, s, 0});

    const std::vector<detail::Chunk> cp = detail::plan_chunks(W, p.task_size(y), chunks);
    std::uint64_t d = y;
    if (cp.size() > 1) {
        std::uint64_t w_min = cp.front().words;
        for (const detail::Chunk& c : cp) w_min = std::min(w_min, c.words);
        while (d < L && w_min / p.task_size(d) < hw.gpu.g) ++d;
    }
    p.gpu = detail::device_climbs(cp, off, W, L, d, y);
    if (cp.size() > 1) {
        Plan mono = p;
        mono.gpu = detail::device_climbs({{0, W}}, off, W, L, y, y);
        p.est_chosen = detail::priced_device_lane(p, alg, hw);
        p.est_mono = detail::priced_device_lane(mono, alg, hw);
        if (!(p.est_chosen < p.est_mono)) p.gpu = std::move(mono.gpu);
    }
    p.chunks = p.gpu.size() - (p.gpu.back().merge ? 1 : 0);
    return p;
}

/// Advanced hybrid (§5.2) at (α, y): the pipelined plan with one chunk —
/// exactly two bulk transfers of the device slice.
template <typename T>
Plan plan_advanced(const LevelAlgorithm<T>& alg, const sim::HpuParams& hw, std::uint64_t n,
                   double alpha, std::uint64_t y) {
    Plan p = plan_pipelined(alg, hw, n, alpha, y, 1);
    p.executor = "advanced-hybrid";
    p.streamed = false;
    p.chunks = 0;
    return p;
}

/// Prices `plan` on `hw` into the flat event list the static verifier
/// checks (verify::check_plan), on a clock starting at 0.
template <typename T>
verify::SchedulePlan price_plan(const Plan& plan, const LevelAlgorithm<T>& alg,
                                const sim::HpuParams& hw) {
    sim::CpuUnit cpu(hw.cpu);
    sim::Device dev(hw.gpu);
    ExecOptions opts;
    opts.functional = false;
    opts.trace = nullptr;
    ExecReport rep;
    verify::SchedulePlan events;
    events.executor = plan.executor;
    detail::Walker<T> w{plan, alg, cpu, &dev, hw.link, opts, {}, {}, rep, &events};
    w.walk(0.0, trace::kNoSpan);
    return events;
}

}  // namespace hpu::core
