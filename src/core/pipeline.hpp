// The pipelined hybrid scheduler (DESIGN.md §9): the advanced schedule of
// §5.2 with its two bulk transfers split into K chunks that overlap wave
// execution on the link's FIFO stream.
//
// The GPU lane runs in three stages (plan_pipelined in core/plan.hpp):
//
//   stage 0 — eager input stream: the K input chunks (aligned to the
//     transfer-level task size) are enqueued on the link at tick 0 and
//     arrive back to back; chunk c's words land at (c+1)·λ + δ·prefix.
//   stage 1 — chunk-local compute: as soon as a chunk has arrived and the
//     device is free, its leaves and the deep levels L-1..d run on the
//     chunk alone. The merge level d is the shallowest level at which the
//     smallest chunk still fills the device (≥ g tasks); chunking shallower
//     levels would fragment waves and inflate the makespan.
//   stage 2 — merged shallow compute: levels d-1..y run as whole-region
//     launches (they need data from every chunk), then the results ship
//     back in one bulk transfer. When d = y the stage is empty and results
//     stream back chunk by chunk instead, overlapping the last computes.
//
// A priori guard: the producer prices both the K-chunk and the 1-chunk
// plan's GPU lane with the walker that runs them and falls back to K = 1
// unless pipelining strictly wins — so the pipelined makespan is never
// worse than the advanced one (exactly, in analytic mode; for uniform-cost
// algorithms the functional clock matches). At K = 1 the plan is the
// advanced hybrid's, reproducing its makespan bit for bit.
//
// The CPU lane, sync point, and finish lane are the advanced hybrid's,
// unchanged.
//
// Like the other schedulers, pipelined runs inherit host-parallel
// functional execution from the Hpu's thread pool; the virtual pipeline
// schedule is bit-identical with or without it (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>

#include "core/hybrid.hpp"

namespace hpu::core {

/// Knobs of the pipelined scheduler beyond (α, y).
struct PipelinedOptions {
    /// Requested transfer chunks K (>= 1). Clamped to the transfer-level
    /// task count of the GPU slice; the no-win guard may reduce it to 1.
    /// Dynamic trees ignore it, as they ignore (α, y).
    std::uint64_t chunks = 4;
    ExecOptions exec;
};

/// Pipelined hybrid scheduler at explicit (α, transfer level y, K chunks).
/// Same contract as run_advanced_hybrid; ExecReport::chunks reports the K
/// the guard settled on. A dynamic tree runs the advanced per-level split,
/// whose device part is one launch per level, so there is nothing to
/// chunk: chunks reports 1, the schedule degenerated to the advanced hybrid.
template <typename T>
ExecReport run_pipelined_hybrid(sim::Hpu& hpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                                double alpha, std::uint64_t y,
                                const PipelinedOptions& pip = {}) {
    return detail::run_plan(plan_pipelined(alg, hpu.params(), data.size(), alpha, y, pip.chunks),
                            hpu.cpu(), &hpu.gpu(), hpu.params(), alg, data, pip.exec,
                            pip.chunks);
}

}  // namespace hpu::core
