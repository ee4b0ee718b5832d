#include "verify/report.hpp"

#include <sstream>

namespace hpu::verify {

const char* to_string(ProofStatus s) noexcept {
    switch (s) {
        case ProofStatus::kProven: return "proven";
        case ProofStatus::kCounterexample: return "counterexample";
        case ProofStatus::kUnknown: return "unknown";
        case ProofStatus::kUndeclared: return "undeclared";
    }
    return "?";
}

std::string Counterexample::describe() const {
    std::ostringstream os;
    os << (write_write ? "write-write" : "read-write") << " overlap at word " << word
       << ": tasks j=" << j_a << " and j'=" << j_b << " of level " << level << " (" << count
       << " tasks of " << sz << " words, n=" << n << ")";
    return os.str();
}

const char* to_string(VerifyFinding::Kind k) noexcept {
    switch (k) {
        case VerifyFinding::Kind::kRaceCounterexample: return "race-counterexample";
        case VerifyFinding::Kind::kMalformedFootprint: return "malformed-footprint";
        case VerifyFinding::Kind::kCapacityExceeded: return "capacity-exceeded";
        case VerifyFinding::Kind::kWaveConservation: return "wave-conservation";
        case VerifyFinding::Kind::kPrecedenceViolation: return "precedence-violation";
        case VerifyFinding::Kind::kChunkOverlap: return "chunk-overlap";
        case VerifyFinding::Kind::kNeverWorseViolated: return "never-worse-violated";
        case VerifyFinding::Kind::kDynamicFootprint: return "dynamic-footprint";
    }
    return "?";
}

std::string VerifyFinding::message() const {
    return std::string(to_string(kind)) + ": " + detail;
}

const PhaseProof* VerifyReport::proof(Phase p) const {
    for (const PhaseProof& pp : proofs) {
        if (pp.phase == p) return &pp;
    }
    return nullptr;
}

bool VerifyReport::proven(Phase p) const {
    const PhaseProof* pp = proof(p);
    return pp != nullptr && pp->status == ProofStatus::kProven;
}

bool VerifyReport::race_free() const {
    if (proofs.empty()) return false;
    for (const PhaseProof& pp : proofs) {
        if (pp.status != ProofStatus::kProven) return false;
    }
    return true;
}

bool VerifyReport::certified() const {
    return attempted && race_free() && findings.empty();
}

std::string VerifyReport::summary() const {
    std::ostringstream os;
    os << "verify " << algorithm << "/" << executor << " n=" << n << ": ";
    if (!attempted) {
        os << "not attempted";
        return os.str();
    }
    os << (certified() ? "certified" : "NOT certified");
    for (const PhaseProof& pp : proofs) {
        os << "; " << to_string(pp.phase) << "=" << to_string(pp.status);
        if (!pp.rules.empty()) os << "(" << pp.rules << ")";
    }
    os << "; " << checks_passed << " schedule checks passed, " << findings.size()
       << " findings";
    return os.str();
}

}  // namespace hpu::verify
