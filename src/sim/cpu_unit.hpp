// The multi-core CPU side of the HPU: runs a level of independent tasks on
// p virtual cores. Tasks execute functionally (optionally on a real thread
// pool); virtual time is the list-scheduling makespan of the measured
// per-task op counts, matching the §5 cost (a^i / p) · f(n / b^i) for
// uniform levels.
//
// A level runs as blocks of consecutive tasks, one pool batch per level
// (or the same block loop inline, without a pool). Each task records its
// CPU op count in costs_, which the makespan needs; each block folds its
// tasks' OpCounter sum and largest cost into its own slot, and the slots
// are folded in index order after the batch. Those folds are uint64 sums
// and a max, exact in any grouping, so LevelResult is bit-identical with
// or without a pool (enforced by test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/op_counter.hpp"
#include "sim/params.hpp"
#include "trace/counters.hpp"
#include "util/makespan.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace hpu::sim {

/// Result of running one level of tasks.
struct LevelResult {
    Ticks time = 0.0;             ///< virtual makespan (incl. contention penalty)
    std::uint64_t tasks = 0;
    OpCounter total_ops;
    std::uint64_t max_task_ops = 0;
};

class CpuUnit {
public:
    /// `pool` may be null: tasks then run inline on the caller (the virtual
    /// clock is unaffected — the pool only accelerates functional
    /// execution on multi-core hosts).
    explicit CpuUnit(CpuParams params, util::ThreadPool* pool = nullptr)
        : params_(params), pool_(pool) {
        params_.validate();
    }

    const CpuParams& params() const noexcept { return params_; }

    util::ThreadPool* pool() const noexcept { return pool_; }

    /// Runs `n_tasks` invocations of `task` (callable taking (index,
    /// OpCounter&)) on p virtual cores. `working_set_bytes` feeds the
    /// optional LLC contention penalty (0 = unknown/none).
    ///
    /// `tasks_use_pool` declares that the task bodies can split their own
    /// work across the pool (LevelAlgorithm::intra_task_parallel). A level
    /// narrower than the pool then runs inline so the workers serve the
    /// merges *inside* the few tasks instead of idling — near the tree
    /// root that is the only parallelism available. Wall-clock only: the
    /// inline fold is bit-identical to the pooled one.
    template <typename Task>
    LevelResult run_level(std::uint64_t n_tasks, Task&& task, std::uint64_t working_set_bytes = 0,
                          bool tasks_use_pool = false) {
        LevelResult r;
        r.tasks = n_tasks;
        if (n_tasks == 0) return r;
        costs_.resize(n_tasks);  // reusable arena: no per-level allocation
        const std::uint64_t workers = pool_ != nullptr ? pool_->worker_count() : 0;
        const bool pooled =
            workers > 0 && n_tasks > 1 && !(tasks_use_pool && n_tasks <= workers);
        const std::uint64_t block = block_items(n_tasks, pooled ? workers + 1 : 1);
        const std::uint64_t n_blocks = util::ceil_div(n_tasks, block);
        blocks_.assign(n_blocks, BlockCharges<std::uint64_t>{});
        auto run_block = [&](std::uint64_t b) {
            const std::uint64_t end = std::min(n_tasks, (b + 1) * block);
            BlockCharges<std::uint64_t> acc;
            for (std::uint64_t i = b * block; i < end; ++i) {
                OpCounter ops;
                task(i, ops);
                const std::uint64_t cost = ops.cpu_ops();
                costs_[i] = cost;
                acc.max_cost = std::max(acc.max_cost, cost);
                acc.ops += ops;
            }
            blocks_[b] = acc;
        };
        if (pooled) {
            pool_->parallel_for(n_blocks, run_block);
        } else {
            for (std::uint64_t b = 0; b < n_blocks; ++b) run_block(b);
        }
        for (const auto& acc : blocks_) {
            r.total_ops += acc.ops;
            r.max_task_ops = std::max(r.max_task_ops, acc.max_cost);
        }
        trace::count(trace::counters().cpu_levels);
        r.time = static_cast<Ticks>(
            util::makespan(std::span(costs_.data(), n_tasks), params_.p));
        r.time *= params_.contention_factor(n_tasks, working_set_bytes);
        return r;
    }

private:
    CpuParams params_;
    util::ThreadPool* pool_;
    // Per-level scratch, reused across levels so functional execution
    // allocates nothing steady-state: one cost per task for the makespan,
    // one charge slot per block (at most 8 × participants).
    std::vector<std::uint64_t> costs_;
    std::vector<BlockCharges<std::uint64_t>> blocks_;
};

}  // namespace hpu::sim
