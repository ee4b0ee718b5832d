// Karatsuba polynomial multiplication as an IrregularLevelAlgorithm: the
// canonical arity-3 divide (a = 3, b = 2), with ceil/floor operand splits so
// every even input size is admissible — no power-of-two padding. Input
// layout is data = [lhs coefficients (n) | rhs coefficients (n)]; finalize
// overwrites data[0 .. 2n) with the 2n-1 product coefficients (last slot
// padded with 0). Coefficients multiply without carries, so any test inputs
// with modest magnitudes stay exact in int64.
//
// The whole computation lives in an arena: prepare() builds the task tree
// once per operand length (bump allocation, breadth-first), giving node i
// an arena region [off, off + 4m) = [A(m) | B(m) | R(2m)]. A task's extent
// IS its arena region and its tag is the node id, so sibling extents are
// disjoint by construction, every access is logged at kScratchRegionBase +
// arena offset, and the dynamic race check sees the true footprint. divide
// copies child operands (including the A0+A1 / B0+B1 sums for the middle
// child); combine assembles R = z0 + (z1 - z0 - z2)·X^h + z2·X^{2h}. Nodes
// with m <= 4 go schoolbook and end the branch early.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/level_algorithm.hpp"
#include "util/check.hpp"
#include "verify/footprint.hpp"

namespace hpu::algos {

class KaratsubaArray : public core::IrregularLevelAlgorithm<std::int64_t> {
public:
    std::string name() const override { return "karatsuba"; }
    std::uint64_t a() const override { return 3; }
    std::uint64_t b() const override { return 2; }

    model::Recurrence recurrence() const override {
        model::Recurrence r;
        r.a = 3.0;
        r.b = 2.0;
        // Operand copies + the sum child on the way down, three adds up.
        r.f = [](double m) { return 4.0 * m; };
        r.leaf_cost = 1.0;
        return r;
    }

    /// Two same-length operands — any even total size, no power-of-two
    /// requirement (the ceil/floor split absorbs odd operand lengths).
    bool admissible(std::uint64_t sz) const override {
        return sz >= 2 && sz % 2 == 0;
    }

    void prepare(std::uint64_t sz) const override {
        HPU_CHECK(admissible(sz), "karatsuba: size must be even and >= 2");
        const std::uint64_t n = sz / 2;
        // The tree and the arena layout depend on n alone: build them once
        // per size. The arena is not cleared between runs — every word a
        // run reads it writes first (root_tasks the root's operands, each
        // divide its children's, leaves and combines zero R before they
        // accumulate).
        if (!nodes_.empty() && nodes_[0].m == n) return;
        nodes_.clear();
        nodes_.push_back(Node{n, 0, {0, 0, 0}});
        std::uint64_t cursor = 4 * n;
        for (std::uint64_t idx = 0; idx < nodes_.size(); ++idx) {
            const std::uint64_t m = nodes_[idx].m;
            if (m <= kBase) continue;
            const std::uint64_t h = (m + 1) / 2;
            const std::uint64_t sizes[3] = {h, m - h, h};
            for (int c = 0; c < 3; ++c) {
                nodes_[idx].kid[c] = nodes_.size();
                nodes_.push_back(Node{sizes[c], cursor, {0, 0, 0}});
                cursor += 4 * sizes[c];
            }
        }
        arena_.resize(cursor);
    }

    core::TaskList root_tasks(std::span<std::int64_t> data, sim::OpCounter& ops) const override {
        const std::uint64_t n = data.size() / 2;
        HPU_CHECK(!nodes_.empty() && nodes_[0].m == n,
                  "prepare() was not called with this input size");
        for (std::uint64_t i = 0; i < n; ++i) arena_[i] = data[i];
        for (std::uint64_t i = 0; i < n; ++i) arena_[n + i] = data[n + i];
        ops.charge_compute(2 * n);
        ops.charge_mem(4 * n, sim::Pattern::kCoalesced);
        core::TaskList roots;
        roots.tasks.push_back(core::TaskDesc{0, 4 * n, 0});
        return roots;
    }

    void divide_task(std::span<std::int64_t> /*data*/, const core::TaskDesc& t,
                     std::uint64_t /*level*/, core::ChildSlots& children,
                     sim::OpCounter& ops) const override {
        ops += task_charge(t, false);
        const Node& node = nodes_[t.tag];
        const std::uint64_t m = node.m, off = node.off;
        const std::int64_t* A = arena_.data() + off;
        const std::int64_t* B = A + m;
        if (m <= kBase) {
            // Schoolbook leaf: R has 2m-1 significant coefficients.
            std::int64_t* R = arena_.data() + off + 2 * m;
            for (std::uint64_t i = 0; i < 2 * m; ++i) R[i] = 0;
            for (std::uint64_t i = 0; i < m; ++i) {
                for (std::uint64_t j = 0; j < m; ++j) R[i + j] += A[i] * B[j];
            }
            ops.log_read(verify::kScratchRegionBase + off, 2 * m);
            ops.log_write(verify::kScratchRegionBase + off + 2 * m, 2 * m);
            return;  // branch ends here — depths vary with operand length
        }
        const std::uint64_t h = (m + 1) / 2;
        const Node& c0 = nodes_[node.kid[0]];  // z0 = A0 * B0 (size h)
        const Node& c1 = nodes_[node.kid[1]];  // z2 = A1 * B1 (size m - h)
        const Node& c2 = nodes_[node.kid[2]];  // z1 = (A0+A1) * (B0+B1) (size h)
        std::int64_t* lo = arena_.data() + c0.off;
        std::int64_t* hi = arena_.data() + c1.off;
        std::int64_t* sum = arena_.data() + c2.off;
        for (std::uint64_t i = 0; i < h; ++i) {
            lo[i] = A[i];
            lo[h + i] = B[i];
            sum[i] = A[i];
            sum[h + i] = B[i];
        }
        for (std::uint64_t i = 0; i < m - h; ++i) {
            hi[i] = A[h + i];
            hi[(m - h) + i] = B[h + i];
            sum[i] += A[h + i];
            sum[h + i] += B[h + i];
        }
        ops.log_read(verify::kScratchRegionBase + off, 2 * m);
        for (const std::uint64_t kid : node.kid) {
            const Node& c = nodes_[kid];
            ops.log_write(verify::kScratchRegionBase + c.off, 2 * c.m);
            children.push_back(core::TaskDesc{c.off, c.off + 4 * c.m, kid});
        }
    }

    void combine_task(std::span<std::int64_t> /*data*/, const core::TaskDesc& t,
                      std::uint64_t /*level*/, std::span<const core::TaskDesc> children,
                      sim::OpCounter& ops) const override {
        ops += task_charge(t, true);
        // A schoolbook leaf already produced its R in the divide sweep.
        if (children.empty()) return;
        const Node& node = nodes_[t.tag];
        const std::uint64_t m = node.m, off = node.off, h = (m + 1) / 2;
        const Node& c0 = nodes_[node.kid[0]];
        const Node& c1 = nodes_[node.kid[1]];
        const Node& c2 = nodes_[node.kid[2]];
        const std::int64_t* z0 = arena_.data() + c0.off + 2 * h;
        const std::int64_t* z2 = arena_.data() + c1.off + 2 * (m - h);
        const std::int64_t* z1 = arena_.data() + c2.off + 2 * h;
        std::int64_t* R = arena_.data() + off + 2 * m;
        for (std::uint64_t i = 0; i < 2 * m; ++i) R[i] = 0;
        for (std::uint64_t i = 0; i < 2 * h; ++i) R[i] += z0[i];
        for (std::uint64_t i = 0; i < 2 * (m - h); ++i) R[2 * h + i] += z2[i];
        for (std::uint64_t i = 0; i < 2 * h; ++i) {
            std::int64_t mid = z1[i] - z0[i];
            if (i < 2 * (m - h)) mid -= z2[i];
            R[h + i] += mid;
        }
        ops.log_read(verify::kScratchRegionBase + c0.off + 2 * h, 2 * h);
        ops.log_read(verify::kScratchRegionBase + c1.off + 2 * (m - h), 2 * (m - h));
        ops.log_read(verify::kScratchRegionBase + c2.off + 2 * h, 2 * h);
        ops.log_write(verify::kScratchRegionBase + off + 2 * m, 2 * m);
    }

    void finalize(std::span<std::int64_t> data, sim::OpCounter& ops) const override {
        // Product (2n coefficients, last padded 0) overwrites both operands.
        const std::uint64_t n = data.size() / 2;
        const std::int64_t* R = arena_.data() + 2 * n;
        for (std::uint64_t i = 0; i < 2 * n; ++i) data[i] = R[i];
        ops.charge_compute(2 * n);
        ops.charge_mem(4 * n, sim::Pattern::kCoalesced);
    }

    /// Over operands of length m (the extent is [A | B | R], 4m words):
    /// a schoolbook leaf's divide is m² multiply-adds over 4m strided
    /// words and its combine a no-op; an inner divide copies and sums
    /// 4m coalesced words, its combine assembles R from three 2m-word
    /// partial products (6m ops, 8m strided words).
    sim::OpCounter task_charge(const core::TaskDesc& t, bool combine) const override {
        const std::uint64_t m = t.size() / 4;
        sim::OpCounter c;
        if (combine) {
            if (m <= kBase) {
                c.charge_compute(1);
            } else {
                c.charge_compute(6 * m);
                c.charge_mem(8 * m, sim::Pattern::kStrided);
            }
        } else if (m <= kBase) {
            c.charge_compute(m * m);
            c.charge_mem(4 * m, sim::Pattern::kStrided);
        } else {
            c.charge_compute(4 * m);
            c.charge_mem(4 * m, sim::Pattern::kCoalesced);
        }
        return c;
    }

    /// Exact width schedule of the {h, m-h, h} tree for input size sz.
    std::vector<std::uint64_t> analytic_widths(std::uint64_t sz) const override {
        std::vector<std::uint64_t> widths{1};
        std::vector<std::uint64_t> sizes{sz / 2};
        while (true) {
            std::vector<std::uint64_t> next;
            for (const std::uint64_t m : sizes) {
                if (m <= kBase) continue;
                const std::uint64_t h = (m + 1) / 2;
                next.push_back(h);
                next.push_back(m - h);
                next.push_back(h);
            }
            if (next.empty()) break;
            widths.push_back(next.size());
            sizes = std::move(next);
        }
        return widths;
    }

protected:
    static constexpr std::uint64_t kBase = 4;  ///< schoolbook threshold

    struct Node {
        std::uint64_t m = 0;        ///< operand length at this node
        std::uint64_t off = 0;      ///< arena offset of [A | B | R]
        std::uint64_t kid[3] = {};  ///< child node ids (m > kBase only)
    };

    mutable std::vector<Node> nodes_;         ///< bump-allocated task tree
    mutable std::vector<std::int64_t> arena_; ///< all operands and partial products
};

}  // namespace hpu::algos
