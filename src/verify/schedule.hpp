// Schedule verification: the executors' event sequences (levels, leaf
// sweeps, transfers) as a flat SchedulePlan, checked against the resource
// invariants the paper's schedulers promise — per-event capacity
// conservation (a CPU slot fits at most p task-streams, a device launch at
// most g lanes per wave), per-unit serialization, transfer-before-use
// precedence, pipelined chunk double-buffer safety, and the pipelined
// never-worse guard. Violations become VerifyFindings; invariants that
// hold bump checks_passed. The lists come from the plan walker of
// core/plan.hpp: priced before a run for its certificate, or logged as a
// validated run executes them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/params.hpp"
#include "verify/report.hpp"

namespace hpu::verify {

/// One planned event on one unit with its resource demand: `tasks`
/// parallel streams of `work` total ops over [start, start+duration),
/// touching `words` elements at `offset` of the launch address space.
struct PlanEvent {
    enum class Unit : std::uint8_t { kCpu, kGpu, kLink };
    enum class Kind : std::uint8_t { kLevel, kLeaves, kXferIn, kXferOut };
    Unit unit = Unit::kCpu;
    Kind kind = Kind::kLevel;
    double start = 0.0;
    double duration = 0.0;
    std::uint64_t tasks = 0;
    std::uint64_t offset = 0;
    std::uint64_t words = 0;
    double work = 0.0;
    std::string label;
};

/// A whole planned run of one executor.
struct SchedulePlan {
    std::string executor;
    std::vector<PlanEvent> events;
};

/// Checks every schedule invariant of `plan` against the hardware
/// parameters; findings / passed counts land in `report`.
void check_plan(const SchedulePlan& plan, const sim::HpuParams& hw, VerifyReport& report);

/// The pipelined a-priori guard restated as an invariant: with K > 1
/// chunks the chosen estimate must be strictly below the monolithic one.
void check_never_worse(double est_chosen, double est_mono, std::uint64_t chunks,
                       VerifyReport& report);

}  // namespace hpu::verify
