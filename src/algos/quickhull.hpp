// Quickhull (2D convex hull) as an IrregularLevelAlgorithm: the canonical
// data-dependent divide-and-conquer. Each task owns a contiguous extent of
// candidate points, all strictly left of its directed edge (P, Q); divide
// finds the farthest point C, partitions the extent into the points outside
// edge (P, C) and those outside (C, Q) — widths depend entirely on the
// data — and spawns the two children (pushed even when empty, so empty
// branches exercise the engine's conservation accounting). Points inside
// the triangle are dropped in place; C comes to rest at a fixed position
// inside the dropped middle, where a hull mark keyed by array index stays
// stable for the rest of the run. There is no combine sweep (has_combine()
// = false); finalize gathers the marked points into the front of the array,
// sorted lexicographically.
//
// Host data work (DESIGN.md §14): a divide reads its extent three times —
// the farthest scan, one flag pass that stages the extent into scratch and
// codes each point's side (two cross products), and one scatter through
// per-side cursors (util/partition.hpp); the root pass does the same with
// one cross product per point. An extent that clears the merge kernel's
// gate runs each pass in blocks across the bound pool (DESIGN.md §15).
//
// Determinism: the farthest point breaks ties toward P along the edge,
// then by smallest index (so collinear edge points are never marked), the
// scatter keeps every side in extent order whatever the block count, and
// the per-task edge table is keyed by extent begin (unique among the
// non-empty tasks of a level; written by the parent one level earlier) —
// so every executor, pooled or inline, produces the byte-identical array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algos/geometry.hpp"
#include "core/level_algorithm.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/merge_path.hpp"
#include "util/partition.hpp"
#include "verify/footprint.hpp"

namespace hpu::algos {

class Quickhull : public core::IrregularLevelAlgorithm<Pt> {
public:
    std::string name() const override { return "quickhull"; }
    /// Modeling shape only (the real tree is data-dependent): binary
    /// halving with a linear partition pass.
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }

    model::Recurrence recurrence() const override {
        model::Recurrence r;
        r.a = 2.0;
        r.b = 2.0;
        // Per candidate point: one farthest-scan read + cross product, plus
        // the two-pass partition (~1 read + 1 write).
        r.f = [](double m) { return 4.0 * m; };
        r.leaf_cost = 1.0;
        return r;
    }

    /// Any point count with a hull is admissible — no power-of-b shape.
    bool admissible(std::uint64_t n) const override { return n >= 2; }

    void prepare(std::uint64_t n) const override {
        n_ = n;
        hull_.assign(n, 0);
        // No zero-fill for the rest: a parent writes a child's edge before
        // the child reads it, and every pass stages before it scatters.
        edge_from_.resize(n);
        edge_to_.resize(n);
        scratch_.resize(n);
        codes_.resize(n);
        lower_begin_ = n;
        hull_count_ = 0;
    }

    void bind_exec(const util::MergeExec& exec) const override { exec_ = exec; }

    bool intra_task_parallel() const override { return exec_.parallel_ok(); }

    core::TaskList root_tasks(std::span<Pt> data, sim::OpCounter& ops) const override {
        const std::uint64_t n = data.size();
        HPU_CHECK(n_ == n, "prepare() was not called with this input size");
        const std::size_t blocks = util::pass_blocks(n, exec_);
        // Anchor the hull on the lexicographic extremes: the first index of
        // the least and of the greatest point, per block, then in block order.
        struct Ends {
            std::uint64_t lo, hi;
        };
        Ends ends[util::kMaxPassBlocks];
        util::for_blocks(exec_.pool, n, blocks, [&](std::size_t k, std::size_t lo, std::size_t hi) {
            Ends x{lo, lo};
            for (std::uint64_t i = lo + 1; i < hi; ++i) {
                if (data[i] < data[x.lo]) x.lo = i;
                if (data[x.hi] < data[i]) x.hi = i;
            }
            ends[k] = x;
        });
        std::uint64_t ia = ends[0].lo, ib = ends[0].hi;
        for (std::size_t k = 1; k < blocks; ++k) {
            if (data[ends[k].lo] < data[ia]) ia = ends[k].lo;
            if (data[ib] < data[ends[k].hi]) ib = ends[k].hi;
        }
        ops.charge_compute(2 * n);
        ops.charge_mem(n, sim::Pattern::kStrided);
        if (data[ia] == data[ib]) {
            // All points identical: the hull is that single point.
            hull_[0] = 1;
            return {};
        }
        const Pt A = data[ia], B = data[ib];
        // One flag pass stages the input and codes each point's side of
        // A→B (one cross product per point); one stable scatter lays out
        // [A | left of A→B | collinear | left of B→A | B].
        Pt* tmp = scratch_.data();
        std::uint8_t* codes = codes_.data();
        util::CodeCounts<5> counts[util::kMaxPassBlocks];
        util::classify_blocks<5>(exec_.pool, n, blocks, codes, counts, [&](std::size_t i) {
            const Pt p = data[i];
            tmp[i] = p;
            const i128 c = cross(A, B, p);
            const auto side = static_cast<std::uint8_t>(kCollinear - (c > 0) + (c < 0));
            return i == ia ? kAnchorA : i == ib ? kAnchorB : side;
        });
        const util::CodeCounts<5> tot = util::code_totals(counts, blocks);
        const std::uint64_t upper_end = 1 + tot[kUpper];
        const std::uint64_t lower_begin = upper_end + tot[kCollinear];
        util::scatter_blocks<5>(exec_.pool, tmp, codes, n, blocks, counts,
                                {0, 1, upper_end, lower_begin, n - 1}, data.data());
        ops.charge_mem(2 * n, sim::Pattern::kStrided);
        hull_[0] = 1;
        hull_[n - 1] = 1;
        lower_begin_ = lower_begin;
        core::TaskList roots;
        roots.tasks.push_back(core::TaskDesc{1, upper_end, 0});
        roots.tasks.push_back(core::TaskDesc{lower_begin, n - 1, 0});
        if (upper_end > 1) {
            edge_from_[1] = A;
            edge_to_[1] = B;
        }
        if (n - 1 > lower_begin) {
            edge_from_[lower_begin] = B;
            edge_to_[lower_begin] = A;
        }
        return roots;
    }

    void divide_task(std::span<Pt> data, const core::TaskDesc& t, std::uint64_t /*level*/,
                     core::ChildSlots& children, sim::OpCounter& ops) const override {
        ops += task_charge(t, false);
        if (t.empty()) return;
        const std::uint64_t b = t.begin, e = t.end, m = t.size();
        const Pt P = edge_from_[b], Q = edge_to_[b];
        ops.log_read(verify::kScratchRegionBase + b, 1);
        const std::size_t blocks = util::pass_blocks(m, exec_);
        // Pass 1: the farthest point from the edge. Points tied on distance
        // lie on one line parallel to P→Q, and only its two ends are hull
        // vertices: ties break toward P along P→Q, then toward the smaller
        // index, so C is always a vertex. Each block keeps its own winner;
        // the blocks reduce in order under the same test.
        Far far[util::kMaxPassBlocks];
        util::for_blocks(exec_.pool, m, blocks, [&](std::size_t k, std::size_t lo, std::size_t hi) {
            far[k] = farthest(P, Q, data, b + lo, b + hi);
        });
        Far best = far[0];
        for (std::size_t k = 1; k < blocks; ++k) {
            if (far[k].beats(best)) best = far[k];
        }
        const std::uint64_t imax = best.i;
        const Pt C = data[imax];
        // Pass 2: stage the extent into the task's scratch slice and code
        // each point: outside (P,C), outside (C,Q), dropped, or the one
        // instance of C that is re-inserted. That instance is imax: a
        // point's (distance, along) key determines it, and the scan keeps
        // the first index among equal keys, so imax is C's first
        // occurrence; duplicates of C stay in the dropped middle.
        Pt* tmp = scratch_.data() + b;
        std::uint8_t* codes = codes_.data() + b;
        util::CodeCounts<5> counts[util::kMaxPassBlocks];
        util::classify_blocks<5>(exec_.pool, m, blocks, codes, counts, [&](std::size_t i) {
            const Pt p = data[b + i];
            tmp[i] = p;
            const unsigned outside = static_cast<unsigned>(cross(P, C, p) > 0) |
                                     static_cast<unsigned>(cross(C, Q, p) > 0) << 1;
            return b + i == imax ? kApex : kSide[outside];
        });
        const util::CodeCounts<5> tot = util::code_totals(counts, blocks);
        HPU_CHECK(tot[kLost] == 0, "quickhull partition lost points");
        // Pass 3: [outside (P,C) | C | dropped | outside (C,Q)], each part in
        // extent order. C rests at s1_end, untouched by both children.
        const std::uint64_t s1_end = b + tot[kLeft];
        const std::uint64_t s2_begin = e - tot[kRight];
        util::scatter_blocks<5>(exec_.pool, tmp, codes, m, blocks, counts,
                                {b, s1_end, s1_end + 1, s2_begin, e}, data.data());
        hull_[s1_end] = 1;
        ops.log_read(b, m);
        ops.log_write(b, m);
        ops.log_write(verify::kScratchRegionBase + n_ + s1_end, 1);  // hull mark
        // Children, pushed even when empty (conservation counts them).
        children.push_back(core::TaskDesc{b, s1_end, 0});
        children.push_back(core::TaskDesc{s2_begin, e, 0});
        if (s1_end > b) {
            edge_from_[b] = P;
            edge_to_[b] = C;
            ops.log_write(verify::kScratchRegionBase + b, 1);
        }
        if (e > s2_begin) {
            edge_from_[s2_begin] = C;
            edge_to_[s2_begin] = Q;
            ops.log_write(verify::kScratchRegionBase + s2_begin, 1);
        }
    }

    bool has_combine() const override { return false; }

    void finalize(std::span<Pt> data, sim::OpCounter& ops) const override {
        // In index order the marks are A, the upper chain A→B ascending,
        // the lower chain B→A descending, and B (DESIGN.md §14): reversing
        // the lower chain leaves two ascending runs to merge, O(n + h).
        // When all points are identical only data[0] is marked and
        // lower_begin_ is still n.
        const std::uint64_t n = data.size();
        Pt* marks = scratch_.data();
        std::uint64_t h = 0;
        for (std::uint64_t i = 0; i < lower_begin_; ++i) {
            if (hull_[i] != 0) marks[h++] = data[i];
        }
        const std::uint64_t upper = h;
        for (std::uint64_t i = lower_begin_; i + 1 < n; ++i) {
            if (hull_[i] != 0) marks[h++] = data[i];
        }
        std::reverse(marks + upper, marks + h);
        util::merge_serial(marks, upper, marks + upper, h - upper, data.data(), std::less<Pt>{});
        if (lower_begin_ < n) data[h++] = data[n - 1];  // B, the greatest point
        HPU_CHECK(std::adjacent_find(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(h),
                                     [](const Pt& p, const Pt& q) { return !(p < q); }) ==
                      data.begin() + static_cast<std::ptrdiff_t>(h),
                  "quickhull hull marks are not in chain order");
        hull_count_ = h;
        ops.charge_compute(n);
        ops.charge_mem(n + h, sim::Pattern::kStrided);
    }

    /// A divide: per candidate point, three compute ops (the farthest
    /// scan's cross product, the flag pass's two) and three strided words
    /// (one read per pass); an empty extent only checks its bounds. There
    /// is no combine sweep.
    sim::OpCounter task_charge(const core::TaskDesc& t, bool /*combine*/) const override {
        sim::OpCounter c;
        if (t.empty()) {
            c.charge_compute(1);
            return c;
        }
        c.charge_compute(3 * t.size());
        c.charge_mem(3 * t.size(), sim::Pattern::kStrided);
        return c;
    }

    /// Modeling choice for the analytic path (the real widths are
    /// data-dependent): a balanced doubling tree over halving extents.
    std::vector<std::uint64_t> analytic_widths(std::uint64_t n) const override {
        std::vector<std::uint64_t> widths;
        const std::uint64_t levels = std::max<std::uint64_t>(util::ceil_log2(n), 1);
        for (std::uint64_t i = 0; i < levels; ++i) {
            widths.push_back(util::ipow(2, static_cast<std::uint32_t>(i + 1)));
        }
        return widths;
    }

    /// Hull size after the last finalize (sorted unique hull points sit at
    /// data[0 .. hull_count())).
    std::uint64_t hull_count() const { return hull_count_; }

protected:
    // Root pass codes, in layout order.
    static constexpr std::uint8_t kAnchorA = 0, kUpper = 1, kCollinear = 2, kLower = 3,
                                  kAnchorB = 4;
    // Divide codes, in layout order; kLost (outside both edges) must not occur.
    static constexpr std::uint8_t kLeft = 0, kApex = 1, kInside = 2, kRight = 3, kLost = 4;
    /// Divide code by outside (P,C) | outside (C,Q) << 1.
    static constexpr std::uint8_t kSide[4] = {kInside, kLeft, kRight, kLost};

    /// One block's farthest-point candidate.
    struct Far {
        i128 d;      ///< cross(P, Q, p)
        i128 along;  ///< along(P, Q, p)
        std::uint64_t i;
        /// Farther, or as far and nearer P along P→Q; equal keys keep the
        /// earlier block (the smaller index).
        bool beats(const Far& o) const { return d > o.d || (d == o.d && along < o.along); }
    };

    /// The scan over data[lo, hi): the first index of the farthest point,
    /// ties toward P along P→Q.
    static Far farthest(const Pt& P, const Pt& Q, std::span<const Pt> data, std::uint64_t lo,
                        std::uint64_t hi) {
        std::uint64_t imax = lo;
        i128 dmax = cross(P, Q, data[lo]);
        for (std::uint64_t i = lo + 1; i < hi; ++i) {
            const i128 d = cross(P, Q, data[i]);
            if (d > dmax || (d == dmax && along(P, Q, data[i]) < along(P, Q, data[imax]))) {
                dmax = d;
                imax = i;
            }
        }
        return Far{dmax, along(P, Q, data[imax]), imax};
    }

    mutable std::uint64_t n_ = 0;
    mutable std::vector<std::uint8_t> hull_;   ///< marks, keyed by array index
    mutable std::vector<Pt> edge_from_;        ///< task edge P, keyed by extent begin
    mutable std::vector<Pt> edge_to_;          ///< task edge Q, keyed by extent begin
    mutable std::vector<Pt> scratch_;          ///< partition staging; finalize's marks
    mutable std::vector<std::uint8_t> codes_;  ///< partition side codes
    mutable std::uint64_t lower_begin_ = 0;    ///< first index of the lower chain's extent
    mutable std::uint64_t hull_count_ = 0;
    mutable util::MergeExec exec_;             ///< pool binding (wall-side)
};

}  // namespace hpu::algos
