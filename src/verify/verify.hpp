// hpu::verify — the static analysis pass that runs BEFORE a simulation
// (DESIGN.md §12). Three layers:
//
//   1. prove_algorithm: proves every phase of a LevelAlgorithm's declared
//      footprint pairwise disjoint for all admissible shapes (or finds a
//      concrete counterexample the runtime detector must reproduce);
//   2. verify_plan: takes the Plan the executor is about to run, prices it
//      with the plan walker that runs it, and checks the schedule
//      invariants (capacity, serialization, transfer precedence, chunk
//      safety, never-worse) on the priced events — so the checked schedule
//      and the executed one are the same object. verify_hybrid_run builds
//      a device executor's plan from its parameters and checks it the
//      same way. A dynamic tree's plan, which has no climbs to price, gets
//      a downgrade certificate: its checks run at run time.
//
// The resulting VerifyReport is the certificate executors attach to their
// ExecReport; a proven phase lets the runtime validation layer skip word
// concretization (verify/conformance.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "core/level_algorithm.hpp"
#include "core/plan.hpp"
#include "sim/hpu.hpp"
#include "verify/conformance.hpp"
#include "verify/footprint.hpp"
#include "verify/prover.hpp"
#include "verify/report.hpp"
#include "verify/schedule.hpp"

namespace hpu::verify {

namespace detail {

/// Downgrade certificate for a dynamic tree's run: its task lists exist
/// only at run time, so the prover has nothing to quantify over. Every
/// phase is kUnknown and a kDynamicFootprint finding records the
/// proven→checked downgrade, so proven() is false and, under
/// ExecOptions::validate, the sweeps keep the exact passes on (extent
/// disjointness plus word-level race detection). certified() is false: a
/// dynamic run is checked, never certified.
inline VerifyReport dynamic_certificate(const std::string& algorithm,
                                        const std::string& executor, std::uint64_t n) {
    VerifyReport rep;
    rep.attempted = true;
    rep.algorithm = algorithm;
    rep.executor = executor;
    rep.n = n;
    for (const Phase ph : {Phase::kCpuTask, Phase::kDeviceTask, Phase::kLeaf}) {
        PhaseProof pp;
        pp.phase = ph;
        pp.status = ProofStatus::kUnknown;
        rep.proofs.push_back(pp);
    }
    rep.findings.push_back(VerifyFinding{
        VerifyFinding::Kind::kDynamicFootprint,
        "task lists are data-dependent; static race-freedom proofs downgraded to runtime "
        "checks (extent disjointness + exact race detection per dynamic level)"});
    return rep;
}

}  // namespace detail

/// Proves (or refutes) intra-level race-freedom of every phase of `alg`,
/// quantifying over all admissible levels and input sizes at once.
template <typename T>
VerifyReport prove_algorithm(const core::LevelAlgorithm<T>& alg) {
    VerifyReport rep;
    rep.attempted = true;
    rep.algorithm = alg.name();
    const std::uint64_t b = alg.b();
    const ProofContext task_ctx{b, alg.base_size() * b, /*sz_fixed=*/false};
    const ProofContext leaf_ctx{b, alg.base_size(), /*sz_fixed=*/true};
    rep.proofs.push_back(
        prove_phase(Phase::kCpuTask, alg.footprint(FootprintQuery{Phase::kCpuTask}), task_ctx));
    rep.proofs.push_back(prove_phase(
        Phase::kDeviceTask, alg.footprint(FootprintQuery{Phase::kDeviceTask}), task_ctx));
    rep.proofs.push_back(
        prove_phase(Phase::kLeaf, alg.footprint(FootprintQuery{Phase::kLeaf}), leaf_ctx));
    for (const PhaseProof& pp : rep.proofs) {
        if (pp.status == ProofStatus::kCounterexample) {
            rep.findings.push_back(
                VerifyFinding{VerifyFinding::Kind::kRaceCounterexample,
                              std::string(to_string(pp.phase)) + ": " +
                                  pp.counterexample->describe()});
        } else if (pp.rules == "malformed") {
            rep.findings.push_back(VerifyFinding{
                VerifyFinding::Kind::kMalformedFootprint,
                std::string(to_string(pp.phase)) + ": declared footprint is not well-formed"});
        }
    }
    return rep;
}

/// Certificate for one run of `plan` on `hw`: proves the footprints,
/// re-checks a pipelined plan's never-worse guard, and checks the plan,
/// priced by the plan walker, against the schedule invariants. A dynamic
/// tree's plan gets the downgrade certificate instead.
template <typename T>
VerifyReport verify_plan(const core::LevelAlgorithm<T>& alg, const core::Plan& plan,
                         const sim::HpuParams& hw) {
    if (plan.dynamic()) return detail::dynamic_certificate(alg.name(), plan.executor, plan.n);
    VerifyReport rep = prove_algorithm(alg);
    rep.executor = plan.executor;
    rep.n = plan.n;
    // Only pipelined plans report chunks (>= 1).
    if (plan.chunks > 0) check_never_worse(plan.est_chosen, plan.est_mono, plan.chunks, rep);
    check_plan(core::price_plan(plan, alg, hw), hw, rep);
    return rep;
}

/// Which hybrid schedule verify_hybrid_run checks, plus its knobs
/// (mirroring the corresponding executor's parameters exactly).
struct RunShape {
    enum class Kind : std::uint8_t { kGpu, kBasic, kAdvanced, kPipelined };
    Kind kind = Kind::kGpu;
    double alpha = 0.5;             ///< advanced/pipelined CPU fraction
    std::uint64_t y = 1;            ///< transfer level
    std::uint64_t chunks = 0;       ///< requested K (pipelined)
    bool include_transfers = true;  ///< gpu executor's transfer toggle
};

/// Certificate for a device-involving run: the plan of the executor
/// `shape` names, built from its parameters.
template <typename T>
VerifyReport verify_hybrid_run(const core::LevelAlgorithm<T>& alg, std::uint64_t n,
                               sim::Hpu& hpu, const RunShape& shape) {
    const sim::HpuParams& hw = hpu.params();
    core::Plan plan;
    switch (shape.kind) {
        case RunShape::Kind::kGpu: plan = core::plan_gpu(alg, n, shape.include_transfers); break;
        // A basic run that falls back to the multicore executor never
        // verifies this shape; its CPU plan ("multicore") is checked for
        // completeness.
        case RunShape::Kind::kBasic: plan = core::plan_basic(alg, n, hw); break;
        case RunShape::Kind::kAdvanced:
            plan = core::plan_advanced(alg, hw, n, shape.alpha, shape.y);
            break;
        case RunShape::Kind::kPipelined:
            plan = core::plan_pipelined(alg, hw, n, shape.alpha, shape.y,
                                        shape.chunks == 0 ? 4 : shape.chunks);
            break;
    }
    return verify_plan(alg, plan, hw);
}

}  // namespace hpu::verify
