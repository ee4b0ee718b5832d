// The two hybrid schedulers of §5.
//
// Basic (§5.1): each level runs entirely on the faster unit. Deep levels
// (many small tasks) go to the GPU, top levels (few large tasks) to the
// CPU; the single handoff sits at level i* = log_a(p/γ). One unit is always
// idle — the cost this strategy pays for its single round trip.
//
// Advanced (§5.2): below a split level the array is partitioned — a
// fraction α to the CPU, 1−α to the GPU — and both units climb their
// subtrees concurrently. The GPU stops at transfer level y and ships its
// runs back (the second of exactly two transfers); the CPU then finishes
// the GPU slice's remaining levels and the shared top of the tree.
//
// Both schedules are plans (plan_basic, plan_advanced in core/plan.hpp) run
// by the one plan walker. When ExecOptions::trace is set, the walker
// records a hierarchical span tree (run → phase → level → wave) into the
// given trace session.
//
// Both inherit host-parallel functional execution from the Hpu's units:
// if the Hpu was built with a util::ThreadPool, every CPU level and GPU
// wave runs pool-parallel, while the virtual schedule, traces, and
// analysis stay bit-identical to the inline run (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>

#include "core/executors.hpp"

namespace hpu::core {

/// Knobs of the advanced scheduler beyond (α, y).
struct AdvancedOptions {
    ExecOptions exec;
};

/// Basic hybrid scheduler (§5.1). Levels at or below the crossover run on
/// the device; one transfer each way.
template <typename T>
ExecReport run_basic_hybrid(sim::Hpu& hpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                            const ExecOptions& opts = {}) {
    const Plan plan = plan_basic(alg, data.size(), hpu.params());
    if (plan.shape == PlanShape::kCpu) return run_multicore(hpu.cpu(), alg, data, opts);
    return detail::run_plan(plan, hpu.cpu(), &hpu.gpu(), hpu.params(), alg, data, opts);
}

/// Advanced hybrid scheduler (§5.2) at explicit (α, transfer level y).
/// y counts global levels from the root, as in the paper's figures; the
/// device executes levels L-1 .. y of its slice. Dynamic trees re-balance
/// α per level from the observed task list, so the caller's (α, y) —
/// derived from the regular a^i shape — does not apply and is ignored
/// (ExecReport::alpha_effective reports what the observed split chose).
template <typename T>
ExecReport run_advanced_hybrid(sim::Hpu& hpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                               double alpha, std::uint64_t y,
                               const AdvancedOptions& adv = {}) {
    return detail::run_plan(plan_advanced(alg, hpu.params(), data.size(), alpha, y), hpu.cpu(),
                            &hpu.gpu(), hpu.params(), alg, data, adv.exec);
}

}  // namespace hpu::core
