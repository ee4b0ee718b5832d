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
// Determinism: the farthest point breaks ties toward P along the edge,
// then by smallest index (so collinear edge points are never marked), the
// partition is a stable two-pass sweep through per-extent scratch, and the
// per-task edge table is keyed by extent begin (unique among the non-empty
// tasks of a level; written by the parent one level earlier) — so every
// executor, pooled or inline, produces the byte-identical array.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "algos/geometry.hpp"
#include "core/level_algorithm.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
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
        edge_from_.assign(n, Pt{});
        edge_to_.assign(n, Pt{});
        scratch_.resize(n);
        hull_count_ = 0;
    }

    core::TaskList root_tasks(std::span<Pt> data, sim::OpCounter& ops) const override {
        const std::uint64_t n = data.size();
        HPU_CHECK(n_ == n, "prepare() was not called with this input size");
        // Anchor the hull on the lexicographic extremes.
        std::uint64_t ia = 0, ib = 0;
        for (std::uint64_t i = 1; i < n; ++i) {
            if (data[i] < data[ia]) ia = i;
            if (data[ib] < data[i]) ib = i;
        }
        ops.charge_compute(2 * n);
        ops.charge_mem(n, sim::Pattern::kStrided);
        if (data[ia] == data[ib]) {
            // All points identical: the hull is that single point.
            hull_[0] = 1;
            return {};
        }
        const Pt A = data[ia], B = data[ib];
        // Stable three-way partition of the interior through scratch:
        // [A | left of A→B | collinear | left of B→A | B].
        std::vector<Pt>& tmp = scratch_;
        std::uint64_t w = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i == ia || (i == ib)) continue;
            tmp[w++] = data[i];
        }
        data[0] = A;
        data[n - 1] = B;
        std::uint64_t k = 1;
        for (std::uint64_t i = 0; i < w; ++i) {
            if (cross(A, B, tmp[i]) > 0) data[k++] = tmp[i];
        }
        const std::uint64_t upper_end = k;
        for (std::uint64_t i = 0; i < w; ++i) {
            if (cross(A, B, tmp[i]) == 0) data[k++] = tmp[i];
        }
        const std::uint64_t lower_begin = k;
        for (std::uint64_t i = 0; i < w; ++i) {
            if (cross(A, B, tmp[i]) < 0) data[k++] = tmp[i];
        }
        HPU_CHECK(k == n - 1, "quickhull root partition lost points");
        ops.charge_mem(2 * n, sim::Pattern::kStrided);
        hull_[0] = 1;
        hull_[n - 1] = 1;
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
                     std::vector<core::TaskDesc>& children,
                     sim::OpCounter& ops) const override {
        if (t.empty()) {
            ops.charge_compute(1);
            return;
        }
        const std::uint64_t b = t.begin, e = t.end, m = t.size();
        const Pt P = edge_from_[b], Q = edge_to_[b];
        ops.log_read(verify::kScratchRegionBase + b, 1);
        // Farthest point from the edge. Points tied on distance lie on one
        // line parallel to P→Q, and only its two ends are hull vertices:
        // ties break toward P along P→Q, then toward the smaller index, so
        // C is always a vertex and pooled and inline scans agree.
        std::uint64_t imax = b;
        i128 dmax = cross(P, Q, data[b]);
        for (std::uint64_t i = b + 1; i < e; ++i) {
            const i128 d = cross(P, Q, data[i]);
            if (d > dmax || (d == dmax && along(P, Q, data[i]) < along(P, Q, data[imax]))) {
                dmax = d;
                imax = i;
            }
        }
        const Pt C = data[imax];
        // Stable three-way partition through the task's scratch slice:
        // [outside (P,C) | C + dropped | outside (C,Q)].
        Pt* tmp = scratch_.data() + b;
        for (std::uint64_t i = 0; i < m; ++i) tmp[i] = data[b + i];
        std::uint64_t k = b;
        for (std::uint64_t i = 0; i < m; ++i) {
            if (cross(P, C, tmp[i]) > 0) data[k++] = tmp[i];
        }
        const std::uint64_t s1_end = k;
        data[k++] = C;  // C rests here, untouched by both children
        hull_[s1_end] = 1;
        std::uint64_t dropped = k;
        // Count the second child first so the dropped block lands between.
        std::uint64_t s2 = 0;
        for (std::uint64_t i = 0; i < m; ++i) {
            if (cross(C, Q, tmp[i]) > 0) ++s2;
        }
        const std::uint64_t s2_begin = e - s2;
        // Exactly one instance of C was re-inserted above; duplicates of C
        // stay in the dropped middle.
        bool c_skipped = false;
        for (std::uint64_t i = 0; i < m; ++i) {
            const Pt& p = tmp[i];
            if (cross(P, C, p) > 0 || cross(C, Q, p) > 0) continue;
            if (!c_skipped && p == C) {
                c_skipped = true;
                continue;
            }
            data[dropped++] = p;
        }
        std::uint64_t k2 = s2_begin;
        for (std::uint64_t i = 0; i < m; ++i) {
            if (cross(C, Q, tmp[i]) > 0) data[k2++] = tmp[i];
        }
        HPU_CHECK(dropped == s2_begin && k2 == e, "quickhull partition lost points");
        ops.charge_compute(3 * m);
        ops.charge_mem(3 * m, sim::Pattern::kStrided);
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
        std::vector<Pt> hull;
        for (std::uint64_t i = 0; i < data.size(); ++i) {
            if (hull_[i] != 0) hull.push_back(data[i]);
        }
        std::sort(hull.begin(), hull.end());
        hull.erase(std::unique(hull.begin(), hull.end()), hull.end());
        hull_count_ = hull.size();
        std::copy(hull.begin(), hull.end(), data.begin());
        ops.charge_compute(data.size());
        ops.charge_mem(data.size() + hull.size(), sim::Pattern::kStrided);
    }

    double task_cost_estimate(const core::TaskDesc& t, bool /*combine*/) const override {
        // One farthest scan + two partition passes per candidate point.
        return 4.0 * static_cast<double>(t.size()) + 1.0;
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
    mutable std::uint64_t n_ = 0;
    mutable std::vector<std::uint8_t> hull_;   ///< marks, keyed by array index
    mutable std::vector<Pt> edge_from_;        ///< task edge P, keyed by extent begin
    mutable std::vector<Pt> edge_to_;          ///< task edge Q, keyed by extent begin
    mutable std::vector<Pt> scratch_;          ///< per-extent partition staging
    mutable std::uint64_t hull_count_ = 0;
};

}  // namespace hpu::algos
