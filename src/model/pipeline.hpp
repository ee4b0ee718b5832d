// Predicted makespan of the pipelined advanced schedule (DESIGN.md §9).
//
// The pipelined hybrid splits the advanced schedule's two bulk transfers
// into K chunks and overlaps them with wave execution. Its GPU thread is a
// K-step max-algebra recurrence on the virtual clock:
//
//   in_c   = (c+1)·(λ + δ·w)                      (eager input stream)
//   comp_c = max(in_c, comp_{c-1}) + C_chunk      (chunk-local deep levels)
//   tail   = comp_{K-1} + C_shallow               (merged shallow levels)
//   span   = tail + λ + δ·W          (monolithic out; chunked when d = y)
//
// with w = W/K the chunk payload, C_chunk the chunk's leaves + saturated
// deep levels (a β/K share priced by AdvancedModel::gpu_time_for_share),
// and C_shallow the merged shallow levels below the saturation boundary d.
// In steady state the input stream is effectively free as long as
// compute dominates: the effective cost of a phase is
//
//   max(λ·K + δ·W, compute)  +  edge effects (fill λ + δ·w, drain C_chunk)
//
// which is the closed form the recurrence converges to. At K = 1 the
// recurrence degenerates to λ + δ·W + T_g + λ + δ·W — exactly the
// advanced schedule — so pipeline_gain reads directly as the overlap win.
#pragma once

#include <cstdint>

#include "model/advanced.hpp"

namespace hpu::model {

/// Everything the pipelined predictor derives for one (α, y, K) point.
struct PipelinedPrediction {
    double alpha = 0.0;
    double y = 0.0;
    std::uint64_t chunks = 0;        ///< requested K
    std::uint64_t chunks_effective = 0;  ///< K after the no-win fallback
    double chunk_words = 0.0;        ///< w = (1−α)·n / K
    double chunk_compute = 0.0;      ///< C_chunk: leaves + deep levels, β/K share
    double merge_level = 0.0;        ///< d: chunk-local below, merged launches above
    double input_stream_time = 0.0;  ///< K back-to-back chunks: K·(λ + δ·w)
    double gpu_span = 0.0;           ///< GPU thread makespan incl. transfers
    double advanced_gpu_span = 0.0;  ///< same thread, unpipelined (K = 1)
    double pipeline_gain = 0.0;      ///< advanced_total − total (≥ 0 by fallback)
    double cpu_parallel_time = 0.0;  ///< T_c(α)
    double finish_time = 0.0;
    double total_time = 0.0;         ///< max(gpu_span, T_c) + finish
    double advanced_total = 0.0;     ///< unpipelined total, same accounting
    double seq_time = 0.0;
    double speedup = 0.0;
};

/// Makespan model of the pipelined hybrid, layered over AdvancedModel.
class PipelinedModel {
public:
    PipelinedModel(sim::HpuParams hw, Recurrence rec, double n);

    const AdvancedModel& advanced() const noexcept { return adv_; }

    /// Device-vs-CPU op pricing ratio of the algorithm being modelled
    /// (LevelAlgorithm::device_ops_multiplier); scales every device term.
    /// Default 1 — the paper's model prices device ops at CPU parity.
    void set_device_ops_multiplier(double mult) { mult_ = mult; }

    /// The saturation boundary d ∈ [y, L]: levels at or below d keep every
    /// chunk's launch at ≥ g work-items; levels above d would fragment
    /// waves if chunked, so the executor merges them into whole-region
    /// launches. Continuous analogue of the executor's task-count rule.
    double merge_level(double alpha, double y, std::uint64_t chunks) const;

    /// GPU thread makespan (input stream + chunked deep compute + merged
    /// shallow compute + results retrieval) for K chunks. K = 1 equals the
    /// advanced thread λ + δW + T_g(α, y)·mult + λ + δW exactly.
    double gpu_span(double alpha, double y, std::uint64_t chunks) const;

    /// Full prediction, mirroring the executor's no-win fallback: when K
    /// chunks do not beat the unpipelined span, the effective K is 1.
    PipelinedPrediction predict_at(double alpha, double y, std::uint64_t chunks) const;

private:
    sim::HpuParams hw_;
    Recurrence rec_;
    AdvancedModel adv_;
    double mult_ = 1.0;
};

}  // namespace hpu::model
