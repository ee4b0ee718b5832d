// Layer 2 of the framework: *regular* in-place divide-and-conquer over a
// contiguous array — the class the paper's hybrid schedulers target (§5:
// "regular DC algorithms", all root-to-leaf paths of equal length, division
// implicit in offsets). The case study (mergesort, §6) and the running
// examples (sum, §4.3) fit this shape.
//
// A LevelAlgorithm describes one recursion-tree level at a time. Level i
// (0 = root) has a^i tasks over subproblems of size n/b^i; task j of a
// level touches a statically known slice of the array (for a = b:
// [j·(n/count), (j+1)·(n/count))). The SAME task body runs on a CPU core or
// as a GPU work-item (§4.2's translation); the unit only changes who
// executes it and how its op charges are priced.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/task_list.hpp"
#include "model/recurrence.hpp"
#include "sim/op_counter.hpp"
#include "sim/params.hpp"
#include "util/check.hpp"
#include "util/merge_path.hpp"
#include "verify/footprint.hpp"

namespace hpu::core {

template <typename T>
class IrregularLevelAlgorithm;

template <typename T>
class LevelAlgorithm {
public:
    virtual ~LevelAlgorithm() = default;

    virtual std::string name() const = 0;

    /// Branching factor a and size divisor b of T(n) = a·T(n/b) + f(n).
    virtual std::uint64_t a() const = 0;
    virtual std::uint64_t b() const = 0;

    /// Cost descriptor used by the model-side predictions. Must agree with
    /// the op charges of run_task (tests cross-validate this).
    virtual model::Recurrence recurrence() const = 0;

    /// Subproblem size at which recursion bottoms out. 1 for the classic
    /// algorithms; the §7 blocked variants stop at larger blocks that
    /// run_leaf solves sequentially.
    virtual std::uint64_t base_size() const { return 1; }

    /// True if `n` is an admissible input size (typically: base_size times
    /// a power of b).
    virtual bool admissible(std::uint64_t n) const {
        std::uint64_t m = n;
        while (m > base_size() && m % b() == 0) m /= b();
        return m == base_size();
    }

    /// Host-side pre-pass over the input before any level runs (e.g., the
    /// FFT's bit-reversal permutation). Runs once, on the host, before the
    /// hybrid split; charge its work to `ops` (executors price it as
    /// p-way parallel CPU work).
    virtual void before_run(std::span<T> /*data*/, sim::OpCounter& /*ops*/) const {}

    /// Run combine/divide task `j` (0-based) of the level that has `count`
    /// tasks over `data`. Charges its work to `ops`. The same body runs as
    /// a device work-item unless run_device_task overrides it; there its
    /// memory words are priced by device_pattern().
    virtual void run_task(std::span<T> data, std::uint64_t count, std::uint64_t j,
                          sim::OpCounter& ops) const = 0;

    /// Leaf work for base case `j` of `leaf_count` base cases. Default:
    /// none beyond a unit charge (size-1 subproblems are trivially solved).
    virtual void run_leaf(std::span<T> /*data*/, std::uint64_t /*leaf_count*/,
                          std::uint64_t /*j*/, sim::OpCounter& ops) const {
        ops.charge_compute(1);
    }

    /// Whether leaves carry real work (drives whether executors run a leaf
    /// sweep at the bottom). Default false: leaf charges are modelled but
    /// functionally a no-op.
    virtual bool has_leaf_work() const { return false; }

    /// Device-side task body. Defaults to the CPU body — the §4.2 generic
    /// translation. The §6.3 coalesced mergesort overrides this with the
    /// permuted-layout walk (and the hooks below with the permutations)
    /// while the CPU body stays untouched, exactly as the paper keeps the
    /// optimization "transparent to the CPU implementation".
    virtual void run_device_task(std::span<T> data, std::uint64_t count, std::uint64_t j,
                                 sim::OpCounter& ops) const {
        run_task(data, count, j, ops);
    }

    /// One work-group of a device level (sim::WorkGroup): tasks
    /// [first, first + ops.size()) of the `count`, task first + i charging
    /// ops[i]. The plan walker runs every per-task device level through
    /// this. Default: run_device_task per item, in order. An override may
    /// share host-side work across the group, but each item must charge
    /// and log exactly what its run_device_task would, and the bytes it
    /// leaves must not depend on how the level was grouped.
    virtual void run_device_group(std::span<T> data, std::uint64_t count, std::uint64_t first,
                                  std::span<sim::OpCounter> ops) const {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            run_device_task(data, count, first + i, ops[i]);
        }
    }

    /// Device-side hook before a run of consecutive GPU levels (e.g., the
    /// §6.3 coalescing permutation). `count` is the task count of the
    /// deepest level about to execute. Charged to `ops` as device work.
    virtual void before_gpu_levels(std::span<T> /*device_data*/, std::uint64_t /*count*/,
                                   sim::OpCounter& /*ops*/) const {}

    /// Device-side hook after EACH GPU level's kernel (e.g., flipping a
    /// ping-pong buffer). `count` is the task count of the level just run.
    virtual void after_gpu_level(std::span<T> /*device_data*/, std::uint64_t /*count*/,
                                 sim::OpCounter& /*ops*/) const {}

    /// Host-side preparation before any executor run (e.g., sizing scratch
    /// space). Executors call this once with the full input size.
    virtual void prepare(std::uint64_t /*n*/) const {}

    /// Binds the run's merge-kernel context (DESIGN.md §15): the functional
    /// pool plus whether ExecOptions enabled the Merge Path kernel.
    /// Executors call this right after prepare(). Strictly wall-side: an
    /// implementation may use the binding to run its merges faster, but
    /// its charges, logs, and output bytes must be bit-identical with any
    /// binding (including the default no-op).
    virtual void bind_exec(const util::MergeExec& /*exec*/) const {}

    /// True when this algorithm's task bodies can split their own work
    /// across the bound pool (e.g., Merge Path segments). Executors then
    /// run levels narrower than the pool inline, freeing the workers for
    /// the intra-task parallelism. Must depend only on the bind_exec
    /// binding — never on data — so the virtual clock stays untouched.
    virtual bool intra_task_parallel() const { return false; }

    /// Device-side hook after the last GPU level, before readback.
    virtual void after_gpu_levels(std::span<T> /*device_data*/, std::uint64_t /*count*/,
                                  sim::OpCounter& /*ops*/) const {}

    /// Total charge of ALL device hooks for a GPU phase over a region of
    /// `region_elems` elements — used by the analytic fast path, which
    /// skips the functional hooks. Must equal the sum of the functional
    /// hook charges (tests cross-validate on mergesort).
    virtual sim::OpCounter analytic_gpu_hook_ops(std::uint64_t /*region_elems*/) const {
        return {};
    }

    /// Element-wise form of a level (DESIGN.md §3.1), run as one device
    /// work-item per element instead of one per task: the closed-form
    /// charge of each item of a level whose tasks span `task_size`
    /// elements. std::nullopt (the default) = no element-wise form.
    virtual std::optional<sim::OpCounter> elementwise_item_ops(
        std::uint64_t /*task_size*/) const {
        return std::nullopt;
    }

    /// The data movement of one element-wise level of `count` tasks over
    /// row-major `data`, done host-side: it must leave exactly the bytes
    /// the per-item kernel would.
    virtual void run_elementwise_level(std::span<T> /*data*/, std::uint64_t /*count*/) const {
        HPU_CHECK(false, name() + " has no element-wise form");
    }

    /// Memory pattern of run_task's charges when executed as one work-item
    /// among many on the device. Plain algorithms walk their slice
    /// sequentially — strided across the wave; §6.3-optimized variants
    /// return kCoalesced.
    virtual sim::Pattern device_pattern() const { return sim::Pattern::kStrided; }

    /// Ratio of device-priced ops to CPU-priced ops for one task — how much
    /// the recurrence's f(n) inflates on the device given this algorithm's
    /// charge mix (strided words pay dev.strided_penalty). Used only by the
    /// analytic fast path; functional runs price actual charges.
    virtual double device_ops_multiplier(const sim::DeviceParams& dev) const {
        return device_pattern() == sim::Pattern::kCoalesced ? 1.0 : dev.strided_penalty;
    }

    /// Bytes touched by one whole level over an input of n elements — feeds
    /// the CPU LLC contention model. Default: the full array, twice (read +
    /// write), which is right for mergesort-like algorithms.
    virtual std::uint64_t level_working_set_bytes(std::uint64_t n) const {
        return 2 * n * sizeof(T);
    }

    /// Non-null for algorithms whose recursion tree is produced
    /// dynamically: their dynamic-tree interface. The plan producers give
    /// such algorithms a plan with no climbs, which run_plan runs as the
    /// sweeps of core/irregular.hpp; regular algorithms never take that
    /// path. Virtual downcast so the dispatch needs no RTTI.
    virtual const IrregularLevelAlgorithm<T>* as_irregular() const { return nullptr; }

    /// Symbolic per-task access footprint for the queried phase, in the
    /// task-local frame (word 0 = first word of task 0's slice; `j` ranges
    /// over the level's tasks). Returning a footprint lets hpu::verify
    /// prove the phase race-free before execution — and, under
    /// ExecOptions::validate, have the runtime check logged accesses
    /// against it instead of concretizing words. Return std::nullopt (the
    /// default) to opt out; the verifier then records the phase as
    /// undeclared and the runtime falls back to exact race detection.
    virtual std::optional<verify::TaskFootprint> footprint(
        const verify::FootprintQuery& /*query*/) const {
        return std::nullopt;
    }
};

/// An algorithm whose recursion tree is produced *dynamically*: each level
/// is a TaskList the previous level's divide work computed, with variable
/// arity, uneven extents, empty branches, and early termination (a branch
/// that spawns no children). core/irregular.hpp drives the tree in two
/// sweeps, mirroring the paper's breadth-first translation (Alg. 2):
///
///   expand  — top-down: run every task's divide_task, collect the
///             children it appends; the concatenated children (in task
///             order) are the next level's list; an empty frontier ends
///             the sweep.
///   combine — bottom-up over the recorded levels: run every task's
///             combine_task with the spans of its recorded children
///             (empty span = the task was a leaf). Skipped entirely when
///             has_combine() is false (pure partition algorithms).
///
/// Contract inherited from the regular framework: tasks of one level are
/// independent — non-empty extents pairwise disjoint, logged accesses
/// race-free (both checked under ExecOptions::validate) — and every task
/// body is a pure function of its descriptor plus the data it owns, so
/// pooled execution stays bit-identical to inline.
template <typename T>
class IrregularLevelAlgorithm : public LevelAlgorithm<T> {
public:
    const IrregularLevelAlgorithm<T>* as_irregular() const final { return this; }

    /// Never used on the irregular path; the engine runs divide_task /
    /// combine_task bodies instead.
    void run_task(std::span<T> /*data*/, std::uint64_t /*count*/, std::uint64_t /*j*/,
                  sim::OpCounter& /*ops*/) const override {
        HPU_CHECK(false, "irregular algorithms execute via divide_task/combine_task");
    }

    /// Root frontier (level 0). Runs once on the host before any level —
    /// the irregular analogue of before_run (and charged the same way, as
    /// p-way parallel CPU work); may reorder `data`.
    virtual TaskList root_tasks(std::span<T> data, sim::OpCounter& ops) const = 0;

    /// Divide work of one task: partition / prepare its extent and append
    /// the children tasks to `children`, at most a() of them (zero
    /// children = this branch terminates here). Runs as one CPU task or one
    /// device work-item, and charges exactly `ops += task_charge(t, false)`.
    virtual void divide_task(std::span<T> data, const TaskDesc& t, std::uint64_t level,
                             ChildSlots& children, sim::OpCounter& ops) const = 0;

    /// Whether the tree has a bottom-up combine sweep at all. Pure
    /// partition algorithms (quickhull) return false and skip the sweep.
    virtual bool has_combine() const { return true; }

    /// Combine work of one task, after all its children combined.
    /// `children` are the descriptors divide_task appended (empty = leaf).
    /// Charges exactly `ops += task_charge(t, true)`.
    virtual void combine_task(std::span<T> /*data*/, const TaskDesc& t,
                              std::uint64_t /*level*/,
                              std::span<const TaskDesc> /*children*/,
                              sim::OpCounter& ops) const {
        ops += task_charge(t, true);
    }

    /// Host-side wrap-up after both sweeps (assemble the output in
    /// `data`). Priced as p-way parallel CPU work.
    virtual void finalize(std::span<T> /*data*/, sim::OpCounter& /*ops*/) const {}

    /// The charge of task t's divide (or, with `combine`, its combine),
    /// written once per tree: a pure function of the descriptor (and
    /// immutable prepared state), and exactly what the body adds to its
    /// OpCounter. The split schedulers read it BEFORE the task runs
    /// (model/observed.hpp), so they price each part of a level as its
    /// launch will charge it, and pooled and inline runs split identically.
    virtual sim::OpCounter task_charge(const TaskDesc& t, bool combine) const = 0;

    /// Canonical, data-independent level widths for the analytic fast
    /// path, which prices the tree without executing task bodies (the real
    /// widths of a data-dependent tree only exist at run time). For
    /// algorithms whose shape depends on n alone (closest-pair, Karatsuba)
    /// this is the exact tree; data-dependent algorithms return a modeling
    /// choice (documented per algorithm).
    virtual std::vector<std::uint64_t> analytic_widths(std::uint64_t n) const = 0;

    /// Uniform per-task cost of one analytic level. Defaults to the
    /// recurrence's f(n/b^level), like the regular analytic path.
    virtual double analytic_task_cost(std::uint64_t n, std::uint64_t level) const {
        return this->recurrence().task_cost(static_cast<double>(n),
                                            static_cast<double>(level));
    }

    /// Safety cap on the expansion depth (a buggy divide_task that always
    /// spawns children would otherwise never terminate).
    virtual std::uint64_t max_levels(std::uint64_t n) const { return n + 2; }
};

}  // namespace hpu::core
