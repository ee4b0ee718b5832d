// Closest pair of points as an IrregularLevelAlgorithm: uneven strip
// recursion. root_tasks x-sorts the input once; divide splits each extent
// ceil/floor (so non-power-of-two sizes stay admissible and the tree is
// uneven), and extents of size <= 3 are solved directly in the divide sweep
// — early termination at varying depths. The combine sweep walks the tree
// bottom-up: it merges the two y-sorted halves (so every extent leaves its
// combine y-sorted, the invariant its parent relies on) and then runs the
// classic strip scan — candidates within sqrt(d) of the split line, each
// compared against at most the next 7 strip points in y order.
//
// Per-extent state: the best squared distance is keyed by extent begin
// (the leftmost-spine aliasing is benign — the slot always holds the most
// recently combined result for the node starting there, exactly what the
// parent reads); the split x is keyed by the split index, which is strictly
// interior to the extent and therefore unique across the whole tree. The
// y-sort of a leaf mutates only its own extent, and extents of concurrent
// tasks are disjoint, so pooled and inline execution are byte-identical.
//
// Output convention: finalize stores Pt{closest squared distance, 0} at
// data[0]; the rest of the array is the y-sorted point set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "algos/geometry.hpp"
#include "core/level_algorithm.hpp"
#include "util/check.hpp"
#include "util/merge_path.hpp"
#include "util/partition.hpp"
#include "verify/footprint.hpp"

namespace hpu::algos {

class ClosestPair : public core::IrregularLevelAlgorithm<Pt> {
public:
    std::string name() const override { return "closest-pair"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }

    model::Recurrence recurrence() const override {
        model::Recurrence r;
        r.a = 2.0;
        r.b = 2.0;
        // Linear merge + strip scan per level.
        r.f = [](double m) { return 3.0 * m; };
        r.leaf_cost = 1.0;
        return r;
    }

    /// Any pair-bearing size — the ceil/floor split handles every n.
    bool admissible(std::uint64_t n) const override { return n >= 2; }

    void prepare(std::uint64_t n) const override {
        n_ = n;
        dist_.assign(n, std::numeric_limits<std::uint64_t>::max());
        splitx_.assign(n, 0);
        scratch_.resize(n);
    }

    void bind_exec(const util::MergeExec& exec) const override { exec_ = exec; }

    bool intra_task_parallel() const override { return exec_.parallel_ok(); }

    core::TaskList root_tasks(std::span<Pt> data, sim::OpCounter& ops) const override {
        const std::uint64_t n = data.size();
        HPU_CHECK(n_ == n, "prepare() was not called with this input size");
        // One global x-sort; every divide below reads its split point from
        // the still-x-sorted prefix of the tree.
        sort_blocks(data.data(), n, util::pass_blocks(n, exec_));
        const std::uint64_t logn = n < 2 ? 1 : 64 - static_cast<std::uint64_t>(
                                                     __builtin_clzll(n - 1));
        ops.charge_compute(n * logn);
        ops.charge_mem(2 * n, sim::Pattern::kStrided);
        core::TaskList roots;
        roots.tasks.push_back(core::TaskDesc{0, n, 0});
        return roots;
    }

    void divide_task(std::span<Pt> data, const core::TaskDesc& t, std::uint64_t /*level*/,
                     core::ChildSlots& children, sim::OpCounter& ops) const override {
        ops += task_charge(t, false);
        const std::uint64_t b = t.begin, e = t.end, m = t.size();
        if (m <= kLeaf) {
            // Leaf: solve directly and leave the extent y-sorted, the
            // invariant every combine above this point expects.
            std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
            for (std::uint64_t i = b; i < e; ++i) {
                for (std::uint64_t j = i + 1; j < e; ++j) {
                    best = std::min(best, dist2(data[i], data[j]));
                }
            }
            dist_[b] = best;
            std::sort(data.begin() + static_cast<std::ptrdiff_t>(b),
                      data.begin() + static_cast<std::ptrdiff_t>(e),
                      [](const Pt& p, const Pt& q) {
                          return p.y != q.y ? p.y < q.y : p.x < q.x;
                      });
            ops.log_read(b, m);
            ops.log_write(b, m);
            ops.log_write(verify::kScratchRegionBase + b, 1);  // dist_[b]
            return;  // no children: early termination at this depth
        }
        // Uneven ceil/floor split; the extent is still x-sorted here (only
        // leaves mutate, and leaves are never ancestors of a dividing task).
        // The split line is keyed by `mid`, not `begin`: a node and its left
        // child share a begin (the leftmost spine), but mid is strictly
        // interior to the extent, hence unique across the whole tree.
        const std::uint64_t mid = b + (m + 1) / 2;
        splitx_[mid] = data[mid].x;
        children.push_back(core::TaskDesc{b, mid, 0});
        children.push_back(core::TaskDesc{mid, e, 0});
        ops.log_read(mid, 1);
        ops.log_write(verify::kScratchRegionBase + mid, 1);  // splitx_[mid]
    }

    void combine_task(std::span<Pt> data, const core::TaskDesc& t, std::uint64_t /*level*/,
                      std::span<const core::TaskDesc> children,
                      sim::OpCounter& ops) const override {
        ops += task_charge(t, true);
        // A leaf was already solved in the divide sweep.
        if (children.empty()) return;
        const std::uint64_t b = t.begin, e = t.end, m = t.size();
        const std::uint64_t mid = children[1].begin;
        std::uint64_t d = std::min(dist_[b], dist_[mid]);
        // Merge the two y-sorted halves through scratch, then copy back so
        // this extent is y-sorted for its parent.
        Pt* tmp = scratch_.data() + b;
        const auto yless = [](const Pt& p, const Pt& q) {
            return p.y != q.y ? p.y < q.y : p.x < q.x;
        };
        // Both paths produce the same stable merge (ties take the left
        // half): the serial walk only takes the right element when it is
        // strictly y-less, and merge_segments uses the identical test.
        // The scratch output is disjoint from both input halves, so the
        // Merge Path segments need no staging here.
        const std::size_t parts =
            exec_.parallel_ok() ? util::merge_parts(m, exec_.pool) : 1;
        if (parts > 1) {
            util::merge_segments(exec_.pool, data.data() + b, mid - b, data.data() + mid,
                                 e - mid, tmp, yless, parts);
        } else {
            std::uint64_t i = b, j = mid, w = 0;
            while (i < mid && j < e) {
                tmp[w++] = yless(data[j], data[i]) ? data[j++] : data[i++];
            }
            while (i < mid) tmp[w++] = data[i++];
            while (j < e) tmp[w++] = data[j++];
        }
        for (std::uint64_t k = 0; k < m; ++k) data[b + k] = tmp[k];
        // Strip scan: y-ordered candidates near the split line, each against
        // at most the next 7 strip points. The strip reuses this extent's
        // scratch range, free again once the merged run is copied back.
        const std::int64_t sx = splitx_[mid];
        Pt* strip = tmp;
        std::uint64_t s = 0;
        for (std::uint64_t k = b; k < e; ++k) {
            const i128 dx = data[k].x - sx;
            if (dx * dx < static_cast<i128>(d)) strip[s++] = data[k];
        }
        for (std::uint64_t p = 0; p < s; ++p) {
            for (std::uint64_t q = p + 1; q < s; ++q) {
                const i128 dy = strip[q].y - strip[p].y;
                if (dy * dy >= static_cast<i128>(d)) break;
                d = std::min(d, dist2(strip[p], strip[q]));
            }
        }
        dist_[b] = d;
        ops.log_read(b, m);
        ops.log_write(b, m);
        ops.log_read(verify::kScratchRegionBase + b, 1);
        ops.log_read(verify::kScratchRegionBase + mid, 1);
        ops.log_write(verify::kScratchRegionBase + b, 1);
    }

    void finalize(std::span<Pt> data, sim::OpCounter& ops) const override {
        data[0] = Pt{static_cast<std::int64_t>(dist_[0]), 0};
        ops.charge_compute(1);
        ops.charge_mem(1, sim::Pattern::kCoalesced);
    }

    /// Over an extent of m points: a leaf's divide (m ≤ 3) compares its
    /// pairs and y-sorts them (3m ops, 2m strided words) and its combine is
    /// a no-op; an inner divide only records its split line (2 ops), its
    /// combine merges the halves and scans the strip (3m ops, 3m strided
    /// words).
    sim::OpCounter task_charge(const core::TaskDesc& t, bool combine) const override {
        const std::uint64_t m = t.size();
        sim::OpCounter c;
        if (combine) {
            if (m <= kLeaf) {
                c.charge_compute(1);
            } else {
                c.charge_compute(3 * m);
                c.charge_mem(3 * m, sim::Pattern::kStrided);
            }
        } else if (m <= kLeaf) {
            c.charge_compute(3 * m);
            c.charge_mem(2 * m, sim::Pattern::kStrided);
        } else {
            c.charge_compute(2);
        }
        return c;
    }

    /// Exact width schedule of the ceil/floor tree for size n — the
    /// analytic path prices the same uneven shape the functional path runs.
    std::vector<std::uint64_t> analytic_widths(std::uint64_t n) const override {
        std::vector<std::uint64_t> widths{1};
        std::vector<std::uint64_t> sizes{n};
        while (true) {
            std::vector<std::uint64_t> next;
            for (const std::uint64_t s : sizes) {
                if (s <= kLeaf) continue;
                next.push_back((s + 1) / 2);
                next.push_back(s - (s + 1) / 2);
            }
            if (next.empty()) break;
            widths.push_back(next.size());
            sizes = std::move(next);
        }
        return widths;
    }

    /// Squared distance of the closest pair after finalize.
    std::uint64_t best_dist2() const { return dist_[0]; }

protected:
    static constexpr std::uint64_t kLeaf = 3;  ///< extents this small are solved directly

    /// Sorts data[0, n) as `parts` blocks across the pool, then merges
    /// neighbouring runs pairwise through the merge kernel, ping-ponging
    /// through scratch_; one block is a plain std::sort. Points that
    /// compare equal are equal bytes, so any block count gives std::sort's
    /// result.
    void sort_blocks(Pt* data, std::uint64_t n, std::size_t parts) const {
        util::for_blocks(exec_.pool, n, parts, [&](std::size_t, std::size_t lo, std::size_t hi) {
            std::sort(data + lo, data + hi);
        });
        Pt* src = data;
        Pt* dst = scratch_.data();
        for (std::size_t width = 1; width < parts; width *= 2) {
            for (std::size_t k = 0; k < parts; k += 2 * width) {
                const std::size_t lo = n * k / parts;
                const std::size_t mid = n * std::min(k + width, parts) / parts;
                const std::size_t hi = n * std::min(k + 2 * width, parts) / parts;
                util::merge_segments(exec_.pool, src + lo, mid - lo, src + mid, hi - mid, dst + lo,
                                     std::less<Pt>{}, util::merge_parts(hi - lo, exec_.pool));
            }
            std::swap(src, dst);
        }
        if (src != data) std::copy(src, src + n, data);
    }

    mutable std::uint64_t n_ = 0;
    mutable std::vector<std::uint64_t> dist_;    ///< best d², keyed by extent begin
    mutable std::vector<std::int64_t> splitx_;   ///< split x, keyed by split index
    mutable std::vector<Pt> scratch_;            ///< x-sort, y-merge and strip staging
    mutable util::MergeExec exec_;               ///< Merge Path binding (wall-side)
};

}  // namespace hpu::algos
