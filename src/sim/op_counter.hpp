// Per-work-item (and per-CPU-task) operation accounting. Kernels and CPU
// task bodies charge the work they do; the cost model (sim/device.hpp,
// sim/cpu_unit.hpp) converts charges into virtual time.
#pragma once

#include <cstdint>

#include "sim/access_log.hpp"
#include "util/math.hpp"

namespace hpu::sim {

/// Memory access pattern, from the point of view of a SIMT wave: whether
/// the k-th accesses of adjacent work-items land in adjacent words.
enum class Pattern : std::uint8_t {
    kCoalesced,  ///< adjacent items touch adjacent words (one transaction)
    kStrided,    ///< each item touches its own distant segment
};

/// Charge accumulator. Plain data; cheap to copy and merge.
struct OpCounter {
    std::uint64_t compute = 0;         ///< scalar compute ops
    std::uint64_t mem_coalesced = 0;   ///< words accessed coalesced
    std::uint64_t mem_strided = 0;     ///< words accessed strided
    /// Optional access-set sink for the hpu::analysis race detector.
    /// Charges and traces are deliberately decoupled: log_* records
    /// addresses without pricing anything, so instrumenting a kernel can
    /// never perturb the virtual clock. Excluded from merges.
    ItemAccessLog* trace = nullptr;

    void charge_compute(std::uint64_t ops) noexcept { compute += ops; }
    void charge_mem(std::uint64_t words, Pattern p) noexcept {
        if (p == Pattern::kCoalesced) {
            mem_coalesced += words;
        } else {
            mem_strided += words;
        }
    }

    /// Record that this item reads the word indices
    /// begin, begin+stride, ..., begin+(words-1)·stride. No-op (and no
    /// cost) unless a trace sink is attached.
    void log_read(std::uint64_t begin, std::uint64_t words, std::uint64_t stride = 1) {
        if (trace != nullptr && words > 0) trace->reads.push_back({begin, words, stride});
    }
    /// Same, for writes.
    void log_write(std::uint64_t begin, std::uint64_t words, std::uint64_t stride = 1) {
        if (trace != nullptr && words > 0) trace->writes.push_back({begin, words, stride});
    }

    /// Total ops as seen by a CPU core: every word costs 1 op.
    std::uint64_t cpu_ops() const noexcept { return compute + mem_coalesced + mem_strided; }

    /// Total ops as seen by a GPU lane: strided words pay the SIMT
    /// transaction penalty.
    double gpu_ops(double strided_penalty) const noexcept {
        return static_cast<double>(compute) + static_cast<double>(mem_coalesced) +
               static_cast<double>(mem_strided) * strided_penalty;
    }

    OpCounter& operator+=(const OpCounter& o) noexcept {
        compute += o.compute;
        mem_coalesced += o.mem_coalesced;
        mem_strided += o.mem_strided;
        return *this;
    }
};

/// Charges of one block of consecutive items (Device) or tasks (CpuUnit),
/// folded where the block ran: the summed OpCounter and the largest single
/// cost. Both folds are exact in any grouping — uint64 sums, and a max over
/// NaN-free doubles or integers — so folding blocks in index order after a
/// pooled run reproduces the one-item-at-a-time fold bit for bit.
template <typename Cost>
struct BlockCharges {
    Cost max_cost = 0;
    OpCounter ops;
};

/// Blocks per participating thread, the same target util::ThreadPool's
/// automatic grain uses: enough claims that late-arriving workers and
/// uneven item costs still balance.
inline constexpr std::uint64_t kBlocksPerParticipant = 8;

/// Items per charge block when `count` items run on `participants`
/// threads (1 when inline). A launch of a few heavy items still splits
/// into one-item blocks, so it keeps its parallelism.
constexpr std::uint64_t block_items(std::uint64_t count, std::uint64_t participants) noexcept {
    return util::ceil_div(count, participants * kBlocksPerParticipant);
}

}  // namespace hpu::sim
