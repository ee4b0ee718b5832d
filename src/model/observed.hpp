// Observed-width cost accounting for irregular trees (DESIGN.md §14).
//
// The closed-form schedules of §5 assume level i has a^i equal tasks, so
// the CPU/GPU split α and the basic crossover level both fall out of the
// recurrence before anything runs. An irregular tree has neither property:
// the width and the per-task extents of level i are only known once level
// i-1 executed. These helpers re-derive the same decisions per level from
// the *observed* task list — width, per-task charges, extent words —
// through the unit prices of sim/params.hpp (p cores; g lanes at γ
// ops/tick; λ + δ·w link), the ones the simulator charges and the analytic
// predictions price with.
//
// Decisions are deterministic pure functions of (hardware, charges), so
// pooled and inline irregular runs schedule identically (the
// pool-determinism invariant extends to the dynamic-tree sweeps).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/params.hpp"

namespace hpu::model {

/// One observed task of a level, as the scheduler sees it before running:
/// its CPU ops, the words its extent covers (what a hybrid level exchange
/// would ship) and, when known, its device ops (OpCounter::gpu_ops). A
/// task without device ops (negative, the default) is priced on the
/// device at cost × the device multiplier.
struct ObservedTask {
    double cost = 1.0;
    std::uint64_t words = 0;
    double device_ops = -1.0;
};

/// Per-level α re-balance: the first `cpu_tasks` tasks run on the CPU, the
/// rest on the device. `alpha` is the estimated CPU share of the level's
/// work (the per-level analogue of the paper's α).
struct ObservedSplit {
    std::uint64_t cpu_tasks = 0;
    double alpha = 0.0;
    double cpu_est = 0.0;  ///< estimated CPU-part makespan, ticks
    double gpu_est = 0.0;  ///< estimated GPU-part makespan incl. transfers
};

/// Chooses the prefix split k ∈ [0, width] minimizing the estimated level
/// makespan max(cpu(k), gpu(k)), through the unit prices of sim/params.hpp:
///   cpu(k) = max(host_pass_time(Σ_{j<k} cost_j), max_{j<k} cost_j)
///   gpu(k) = launch_overhead
///            + Σ over the waves of g tasks from k on: wave_time(max device ops)
///            + [include_transfers] 2 · transfer_time(Σ_{j≥k} words_j)
/// The device part is priced wave by wave, exactly as sim::Device::launch
/// charges those per-task ops. The CPU part keeps the list-scheduling
/// lower bound, never above the in-order list schedule the CPU unit
/// charges: the all-CPU candidate k = W then bounds the chosen level by
/// the all-CPU level (DESIGN.md §14).
/// Ties keep the largest k: a split that buys nothing ships nothing.
ObservedSplit split_observed_level(const sim::HpuParams& hw,
                                   std::span<const ObservedTask> tasks,
                                   double device_multiplier, bool include_transfers);

/// Buffers a split or a placement works in. Hand one to every split and
/// placement of a run (the dynamic-tree sweeps keep one per run), and a
/// level allocates only when it is wider than every level before it; it
/// holds about 8 bytes a task of the widest level.
struct SplitScratch {
    std::vector<double> waves;   ///< wave sums of the device part [k, W), per k
    std::vector<double> prefix;  ///< prefix maxima of a block of g tasks
};

/// The same split, working in `scratch`.
ObservedSplit split_observed_level(const sim::HpuParams& hw,
                                   std::span<const ObservedTask> tasks,
                                   double device_multiplier, bool include_transfers,
                                   SplitScratch& scratch);

/// Whole-level placement for the basic-style irregular schedule: the level
/// runs entirely on one unit, priced as split_observed_level prices k = 0
/// (device, without transfers) and k = width (CPU), working in `scratch`;
/// equal prices keep the CPU. `cpu_extra` / `gpu_extra` are the residency
/// switch costs (ticks) the engine would pay to place the level on that
/// unit given where the frontier currently lives.
enum class LevelPlacement { kCpu, kGpu };

struct ObservedPlacement {
    LevelPlacement unit = LevelPlacement::kCpu;
    double cpu_est = 0.0;
    double gpu_est = 0.0;
};

ObservedPlacement place_observed_level(const sim::HpuParams& hw,
                                       std::span<const ObservedTask> tasks,
                                       double device_multiplier, double cpu_extra,
                                       double gpu_extra, SplitScratch& scratch);

}  // namespace hpu::model
