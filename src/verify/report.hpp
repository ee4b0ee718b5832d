// The machine-readable certificate of the static verifier: per-phase
// race-freedom proofs (or counterexamples) plus schedule-invariant
// findings. Executors attach one VerifyReport to each ExecReport when
// ExecOptions::verify is on; the runtime validation layer consults it to
// skip word-level race concretization for statically proven launches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/footprint.hpp"

namespace hpu::verify {

/// Outcome of one phase's disjointness proof.
enum class ProofStatus : std::uint8_t {
    kProven,          ///< pairwise disjoint for ALL admissible (n, level, j, j')
    kCounterexample,  ///< a concrete overlapping (n, level, j, j') exists
    kUnknown,         ///< outside the decidable fragment; runtime checks stay on
    kUndeclared,      ///< the algorithm declared no footprint for this phase
};

const char* to_string(ProofStatus s) noexcept;

/// Concrete witness of a footprint overlap: at input size n, level `level`
/// (count tasks of sz words), tasks j_a and j_b both touch `word`.
struct Counterexample {
    std::uint64_t n = 0;
    std::uint64_t level = 0;
    std::uint64_t count = 0;
    std::uint64_t sz = 0;
    std::uint64_t j_a = 0;
    std::uint64_t j_b = 0;
    std::uint64_t word = 0;
    bool write_write = true;  ///< WW overlap (else RW)

    std::string describe() const;
};

/// Proof result for one execution phase.
struct PhaseProof {
    Phase phase = Phase::kCpuTask;
    ProofStatus status = ProofStatus::kUndeclared;
    /// '+'-joined disjointness rules the proof used ("region", "slice",
    /// "column", "empty", "no-writes"); empty unless proven.
    std::string rules;
    std::optional<Counterexample> counterexample;
    std::uint64_t pairs_checked = 0;
};

/// One violated invariant of the static pass.
struct VerifyFinding {
    enum class Kind : std::uint8_t {
        kRaceCounterexample,   ///< a phase proof produced a concrete overlap
        kMalformedFootprint,   ///< a declared footprint is not well-formed
        kCapacityExceeded,     ///< planned work exceeds unit capacity per slot
        kWaveConservation,     ///< waves of a launch do not conserve its tasks
        kPrecedenceViolation,  ///< use before transfer / compute after readback
        kChunkOverlap,         ///< pipelined chunks overlap in space or time
        kNeverWorseViolated,   ///< pipelined estimate not below the monolithic one
        kDynamicFootprint,     ///< data-dependent task list: proven downgraded to checked
    };
    Kind kind = Kind::kRaceCounterexample;
    std::string detail;

    std::string message() const;
};

const char* to_string(VerifyFinding::Kind k) noexcept;

/// The certificate. `attempted` is false when verification never ran
/// (ExecOptions::verify off) — all queries then answer conservatively.
struct VerifyReport {
    bool attempted = false;
    std::string algorithm;
    std::string executor;
    std::uint64_t n = 0;
    std::vector<PhaseProof> proofs;
    std::vector<VerifyFinding> findings;
    /// Schedule invariants that held (capacity, conservation, precedence,
    /// chunk safety, never-worse).
    std::uint64_t checks_passed = 0;

    const PhaseProof* proof(Phase p) const;

    /// This phase is statically race-free (drives the runtime skip).
    bool proven(Phase p) const;

    /// Every recorded phase proof is kProven.
    bool race_free() const;

    /// Verification ran, proved race-freedom, and found no schedule
    /// violation.
    bool certified() const;

    std::string summary() const;
};

}  // namespace hpu::verify
