// Symbolic footprint algebra — the vocabulary of the static verifier
// (DESIGN.md §12). A LevelAlgorithm declares, per execution phase, the
// access set of ONE task as a union of affine stride walks parameterized
// over the task size `sz`, the level task count `count`, and the task
// index `j`:
//
//   { base(sz,count) + j·jcoef(sz,count) + k·stride(sz,count) :
//     0 <= k < words(sz,count) }
//
// Every coefficient is a Sym — a linear form over (sz, count) with a
// common integer denominator, which is exactly the expressivity the
// regular-D&C algorithms of this repo need (slices, halves, interleaved
// columns) while keeping disjointness decidable. The prover
// (verify/prover.hpp) decides pairwise disjointness of these sets for all
// admissible (sz, count) at once; the conformance checker
// (verify/conformance.hpp) re-checks every runtime-logged access against
// the declaration, so a lie in the footprint is itself a finding.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/validate.hpp"

namespace hpu::verify {

/// HPU_VERIFY environment default for ExecOptions::verify (same convention
/// as HPU_VALIDATE).
inline bool env_verify_default() { return analysis::env_flag_enabled("HPU_VERIFY"); }

/// Ranges the symbolic parameters quantify over when proving facts about a
/// phase: sz >= sz_min (or sz == sz_min exactly for leaf phases, whose
/// task size never varies) and count >= cnt_min. Two tasks require
/// count >= 2 — a single-task level cannot race.
struct Bounds {
    double sz_min = 2.0;
    bool sz_fixed = false;
    double cnt_min = 2.0;
};

/// Linear form (c1 + c_sz·sz + c_cnt·count) / den with integer
/// coefficients and a positive denominator. The den covers the halves and
/// quarters regular D&C footprints need (e.g. a run of sz/2 elements).
struct Sym {
    std::int64_t c1 = 0;     ///< constant term
    std::int64_t c_sz = 0;   ///< coefficient of the task size
    std::int64_t c_cnt = 0;  ///< coefficient of the level task count
    std::int64_t den = 1;    ///< common positive denominator

    /// The literal constant v.
    static Sym lit(std::int64_t v) { return Sym{v, 0, 0, 1}; }
    /// num·sz / den (defaults to sz itself).
    static Sym size(std::int64_t num = 1, std::int64_t d = 1) { return Sym{0, num, 0, d}; }
    /// num·count.
    static Sym count(std::int64_t num = 1) { return Sym{0, 0, num, 1}; }

    bool is_const() const noexcept { return c_sz == 0 && c_cnt == 0; }

    double eval(double sz, double cnt) const noexcept {
        return (static_cast<double>(c1) + static_cast<double>(c_sz) * sz +
                static_cast<double>(c_cnt) * cnt) /
               static_cast<double>(den);
    }

    /// Structural equality up to the denominator (2·sz/2 == sz).
    bool equiv(const Sym& o) const noexcept {
        return c1 * o.den == o.c1 * den && c_sz * o.den == o.c_sz * den &&
               c_cnt * o.den == o.c_cnt * den;
    }

    /// Provably >= 0 over the whole quantified range: coefficients of the
    /// free parameters must be nonnegative (else the form is unbounded
    /// below) and the corner evaluation must be nonnegative.
    bool nonneg(const Bounds& b) const noexcept {
        if (den <= 0) return false;
        if (c_cnt < 0) return false;
        if (c_sz < 0 && !b.sz_fixed) return false;
        return eval(b.sz_min, b.cnt_min) >= 0.0;
    }

    friend Sym operator+(const Sym& x, const Sym& y) {
        return Sym{x.c1 * y.den + y.c1 * x.den, x.c_sz * y.den + y.c_sz * x.den,
                   x.c_cnt * y.den + y.c_cnt * x.den, x.den * y.den};
    }
    friend Sym operator-(const Sym& x, const Sym& y) {
        return Sym{x.c1 * y.den - y.c1 * x.den, x.c_sz * y.den - y.c_sz * x.den,
                   x.c_cnt * y.den - y.c_cnt * x.den, x.den * y.den};
    }
    /// Scale by an integer factor.
    Sym scaled(std::int64_t k) const { return Sym{c1 * k, c_sz * k, c_cnt * k, den}; }
};

/// Address space an access lives in. kData/kScratch are the concrete
/// regions of the launch address space (the scratch arena sits at
/// kScratchRegionBase, see below). kPing/kPong are the two halves of a
/// double-buffer whose binding to the concrete regions flips every level
/// (the coalesced mergesort) — the prover treats ping-vs-pong as disjoint
/// without knowing the current orientation, and the conformance checker
/// tries both orientations.
enum class Region : std::uint8_t { kData, kScratch, kPing, kPong };

/// Simulated address offset of the scratch arena — shared by algorithms
/// that log scratch accesses and by the conformance checker.
inline constexpr std::uint64_t kScratchRegionBase = 1ull << 40;

/// True for regions with a fixed concrete base address.
inline constexpr bool concrete_region(Region r) noexcept {
    return r == Region::kData || r == Region::kScratch;
}

/// Two distinct regions of the same family never share an address; a
/// concrete and an abstract region may alias (unknown orientation).
inline constexpr bool regions_disjoint(Region a, Region b) noexcept {
    return a != b && concrete_region(a) == concrete_region(b);
}

/// One symbolic stride walk of task j (see file header for the set it
/// denotes). Addresses are element offsets relative to the launch region.
struct SymAccess {
    Region region = Region::kData;
    Sym base;                 ///< first word before the j term
    Sym jcoef;                ///< multiplied by the task index j
    Sym words = Sym::lit(1);  ///< number of words touched
    Sym stride = Sym::lit(1); ///< distance between consecutive words
};

/// Declared per-task access set of one phase: what ONE task (any j) may
/// read and write. An empty footprint means "touches nothing" and is
/// trivially race-free — distinct from an undeclared (nullopt) footprint.
struct TaskFootprint {
    std::vector<SymAccess> reads;
    std::vector<SymAccess> writes;

    bool empty() const noexcept { return reads.empty() && writes.empty(); }
};

/// The three execution phases a LevelAlgorithm body can run in. The CPU
/// and device task phases may have different footprints (the §6.3
/// coalesced mergesort overrides only the device walk); the leaf phase
/// covers run_leaf on either unit.
enum class Phase : std::uint8_t { kCpuTask, kDeviceTask, kLeaf };

inline const char* to_string(Phase p) noexcept {
    switch (p) {
        case Phase::kCpuTask: return "cpu-task";
        case Phase::kDeviceTask: return "device-task";
        case Phase::kLeaf: return "leaf";
    }
    return "?";
}

/// Query handed to LevelAlgorithm::footprint. Level and input size default
/// to kSymbolic — "declare the footprint for ALL levels and sizes", which
/// every shipped algorithm can do; a future irregular algorithm may
/// specialize on concrete values and return nullopt for the general query.
struct FootprintQuery {
    static constexpr std::uint64_t kSymbolic = ~0ull;
    Phase phase = Phase::kCpuTask;
    std::uint64_t level = kSymbolic;
    std::uint64_t n = kSymbolic;
};

}  // namespace hpu::verify
