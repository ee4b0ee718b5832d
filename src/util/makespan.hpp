// Makespan computation for a level of independent tasks on p identical
// cores. The HPU model (paper §3) charges a CPU level of m tasks with costs
// c_i the time of the schedule that the runtime would produce; we provide
// both the greedy list schedule (tasks in arrival order to the least-loaded
// core — what a work queue approximates) and LPT (longest processing time
// first — the classic 4/3-approximation), used by the ablation bench.
#pragma once

#include <cstdint>
#include <span>

namespace hpu::util {

enum class ListOrder {
    kArrival,  ///< tasks assigned in the given order (greedy/work-queue)
    kLpt,      ///< tasks sorted by decreasing cost before assignment (LPT)
};

/// Makespan of scheduling `costs` on `cores` identical machines with the
/// chosen list order. cores must be >= 1.
std::uint64_t makespan(std::span<const std::uint64_t> costs, std::size_t cores,
                       ListOrder order = ListOrder::kArrival);

/// Convenience: m tasks of identical cost c on `cores` machines:
/// ceil(m / cores) * c.
std::uint64_t uniform_makespan(std::uint64_t tasks, std::uint64_t cost_each, std::size_t cores);

}  // namespace hpu::util
