// The advanced hybrid work-division model of §5.2.
//
// Bottom-up view of the recursion tree: a fraction α of the subproblems at
// every level belongs to the CPU and 1−α to the GPU. Both units start at the
// leaves. The CPU is saturated (≥ p tasks) until its share shrinks to p
// tasks, which happens at level i₁ = log_a(p/α); that moment defines the
// parallel phase length T_c(α). The GPU climbs as far as it can in that
// time — level y(α), found by solving T_g(α, y) = T_c(α), where T_g has the
// paper's three saturation cases (never / always / partially saturated,
// §5.2.1). The optimal α* maximizes the GPU work W_g(α). Exactly two
// transfers happen: input shipment before the parallel phase and results
// retrieval after it.
#pragma once

#include <vector>

#include "model/recurrence.hpp"
#include "sim/params.hpp"

namespace hpu::model {

/// Everything the optimizer decides plus the derived predictions.
struct AdvancedPrediction {
    double alpha = 0.0;           ///< CPU work ratio (paper's α)
    double y = 0.0;               ///< transfer level reached by the GPU
    double cpu_parallel_time = 0; ///< T_c(α): duration of the parallel phase
    double gpu_work = 0.0;        ///< W_g(α): ops done by the GPU
    double gpu_work_share = 0.0;  ///< W_g / total sequential work
    double finish_time = 0.0;     ///< CPU-only wrap-up after the sync point
    double transfer_time = 0.0;   ///< the two boundary transfers
    double total_time = 0.0;      ///< T_c + finish + transfers
    double seq_time = 0.0;        ///< 1-core baseline
    double speedup = 0.0;         ///< seq / total
};

class AdvancedModel {
public:
    /// `words_transferred` is the payload of EACH of the two transfers, in
    /// words (for mergesort: the (1−α)·n GPU slice; we conservatively charge
    /// the full slice both ways).
    AdvancedModel(sim::HpuParams hw, Recurrence rec, double n);

    double n() const noexcept { return n_; }
    double levels() const noexcept { return levels_; }

    /// T_c(α): time for the CPU to climb from the leaves to level
    /// log_a(p/α) with its α-share, all p cores busy (§5.2.1).
    double cpu_parallel_time(double alpha) const;

    /// T_g(α, y): GPU time from the leaves up to (continuous) level y,
    /// covering all three saturation cases via a per-level max.
    double gpu_time(double alpha, double y) const;

    /// T_g for an explicit device share `beta` ∈ (0, 1] of the leaves and
    /// of every level up to y — gpu_time(α, y) is gpu_time_for_share(1−α,
    /// y). The pipelined model (model/pipeline.hpp) prices each of its K
    /// chunks as a β/K share via this entry point.
    double gpu_time_for_share(double beta, double y) const;

    /// y(α): the level the GPU reaches when the parallel phase ends —
    /// the solution of T_g(α, y) = T_c(α), clamped to [0, levels].
    double y_of_alpha(double alpha) const;

    /// W_g(α): work (ops) the GPU completes below y(α).
    double gpu_work(double alpha) const;

    /// GPU work with an explicit y (used by sweeps over both parameters).
    double gpu_work_at(double alpha, double y) const;

    /// CPU wrap-up after the sync: every level not finished in the parallel
    /// phase runs on the p CPU cores (see DESIGN.md — level-by-level
    /// accounting with ≤ p-way parallelism).
    double finish_time(double alpha, double y) const;

    /// Full prediction for a given (α, y) pair — Fig. 7's sweep axis.
    AdvancedPrediction predict_at(double alpha, double y) const;

    /// Optimal prediction: α* maximizing W_g(α), y = y(α*) — the paper's
    /// recommended operating point (Figs. 3–4).
    AdvancedPrediction optimize() const;

    /// Smallest admissible α: the CPU must start with at least p leaf
    /// tasks (§5.2.1 considers α ≥ p/n).
    double alpha_min() const;

private:
    /// Work of all levels in [y, levels) with linear interpolation at the
    /// fractional boundary, plus nothing for leaves (handled separately).
    /// With gpu_times, each level is priced as the device share `beta`
    /// climbing it (per-level saturation max); otherwise plain work sums
    /// (beta unused).
    double level_sum(double y, bool gpu_times, double beta) const;

    sim::HpuParams hw_;
    Recurrence rec_;
    double n_;
    double levels_;
    double leaves_;
};

}  // namespace hpu::model
