// Inputs and independent references of the hpu benchmark. Every reference
// here shares no code with src/algos: std::sort for mergesort, Andrew's
// monotone chain for quickhull, a sort-and-sweep for closest pair and the
// schoolbook product for Karatsuba. The benchmark precomputes them during
// set-up, outside the timed region, and compares each executor's output
// with the check_* functions below.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "algos/geometry.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hpu::algos::i128;
using hpu::algos::Pt;

// ---------------------------------------------------------------- inputs

/// Mergesort key classes; the msort workload rotates through them job by job.
enum class KeyClass : int { kUniform = 0, kNearlySorted = 1, kFewDistinct = 2 };

/// n keys of one class: uniform in [0, 2n) (the paper's inputs), sorted
/// with 1% random swaps, or 8 distinct values.
inline std::vector<std::int32_t> make_keys(hpu::util::Rng& rng, std::size_t n, KeyClass c) {
    const auto hi = static_cast<std::int64_t>(2 * n - 1);
    switch (c) {
        case KeyClass::kUniform: return rng.int_vector(n, 0, hi);
        case KeyClass::kNearlySorted: {
            std::vector<std::int32_t> v = rng.int_vector(n, 0, hi);
            std::sort(v.begin(), v.end());
            const auto last = static_cast<std::int64_t>(n - 1);
            for (std::size_t s = 0; s < n / 100; ++s) {
                std::swap(v[static_cast<std::size_t>(rng.uniform_int(0, last))],
                          v[static_cast<std::size_t>(rng.uniform_int(0, last))]);
            }
            return v;
        }
        case KeyClass::kFewDistinct: {
            std::vector<std::int32_t> v = rng.int_vector(n, 0, 7);
            for (auto& x : v) x *= 1 << 20;
            return v;
        }
    }
    return {};
}

/// n points uniform in the square [-r, r]².
inline std::vector<Pt> square_points(hpu::util::Rng& rng, std::size_t n, std::int64_t r) {
    std::vector<Pt> pts(n);
    for (auto& p : pts) {
        p.x = rng.uniform_int(-r, r);
        p.y = rng.uniform_int(-r, r);
    }
    return pts;
}

/// n points at uniformly random angles on the circle of radius r, rounded
/// to the integer grid. Rounding pushes some points just inside the hull,
/// so the hull keeps a large, data-dependent share of them: the quickhull
/// tree is deep and uneven.
inline std::vector<Pt> circle_points(hpu::util::Rng& rng, std::size_t n, double r) {
    std::vector<Pt> pts(n);
    for (auto& p : pts) {
        const double th = rng.uniform_real(0.0, 2.0 * 3.14159265358979323846);
        p.x = std::llround(r * std::cos(th));
        p.y = std::llround(r * std::sin(th));
    }
    return pts;
}

// ------------------------------------------------------------ references

/// The convex hull of a point set by Andrew's monotone chain: its strict
/// vertices (collinear boundary points excluded) counter-clockwise, and the
/// same vertices sorted lexicographically (quickhull's output order).
struct HullRef {
    std::vector<Pt> ccw;
    std::vector<Pt> sorted;
};

/// Twice the signed area of (o, a, b): > 0 when b lies left of o→a.
inline i128 cross3(const Pt& o, const Pt& a, const Pt& b) {
    return static_cast<i128>(a.x - o.x) * (b.y - o.y) - static_cast<i128>(a.y - o.y) * (b.x - o.x);
}

inline HullRef monotone_chain_hull(std::vector<Pt> pts) {
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    HullRef ref;
    if (pts.size() < 3) {
        ref.ccw = ref.sorted = pts;
        return ref;
    }
    std::vector<Pt> h(2 * pts.size());
    std::size_t k = 0;
    for (const Pt& p : pts) {
        while (k >= 2 && cross3(h[k - 2], h[k - 1], p) <= 0) --k;
        h[k++] = p;
    }
    for (std::size_t i = pts.size() - 1, lo = k + 1; i-- > 0;) {
        while (k >= lo && cross3(h[k - 2], h[k - 1], pts[i]) <= 0) --k;
        h[k++] = pts[i];
    }
    h.resize(k - 1);  // the last point repeats the first
    ref.ccw = h;
    std::sort(h.begin(), h.end());
    ref.sorted = std::move(h);
    return ref;
}

/// True when p lies on an edge of the counter-clockwise polygon.
inline bool on_boundary(const Pt& p, const std::vector<Pt>& ccw) {
    for (std::size_t i = 0; i < ccw.size(); ++i) {
        const Pt& a = ccw[i];
        const Pt& b = ccw[(i + 1) % ccw.size()];
        if (cross3(a, b, p) == 0 && std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) &&
            std::min(a.y, b.y) <= p.y && p.y <= std::max(a.y, b.y)) {
            return true;
        }
    }
    return false;
}

/// Smallest squared distance between two of the points: x-sorted sweep
/// with a y-ordered window of the points within the current distance.
inline std::uint64_t closest_pair_sweep(std::vector<Pt> pts) {
    std::sort(pts.begin(), pts.end());
    std::uint64_t best = ~std::uint64_t{0};
    std::set<std::pair<std::int64_t, std::int64_t>> window;  // (y, x)
    std::size_t tail = 0;
    const auto sq = [](std::int64_t d) { return static_cast<i128>(d) * d; };
    for (const Pt& p : pts) {
        while (tail < pts.size() && sq(p.x - pts[tail].x) >= static_cast<i128>(best)) {
            window.erase({pts[tail].y, pts[tail].x});
            ++tail;
        }
        // Integer ceil(sqrt(best)) bounds the y band.
        auto r = static_cast<std::int64_t>(std::sqrt(static_cast<double>(best)));
        while (sq(r) < static_cast<i128>(best)) ++r;
        for (auto it = window.lower_bound({p.y - r, std::numeric_limits<std::int64_t>::min()});
             it != window.end() && it->first <= p.y + r; ++it) {
            const i128 d = sq(p.x - it->second) + sq(p.y - it->first);
            if (d < static_cast<i128>(best)) best = static_cast<std::uint64_t>(d);
        }
        if (best == 0) return 0;
        window.insert({p.y, p.x});
    }
    return best;
}

/// Schoolbook product of two equal-length coefficient vectors: 2n − 1
/// coefficients.
inline std::vector<std::int64_t> schoolbook_product(std::span<const std::int64_t> a,
                                                    std::span<const std::int64_t> b) {
    std::vector<std::int64_t> r(a.size() + b.size() - 1, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < b.size(); ++j) r[i + j] += a[i] * b[j];
    }
    return r;
}

// ---------------------------------------------------------------- checks

inline bool check_sorted(std::span<const std::int32_t> out,
                         const std::vector<std::int32_t>& ref) {
    return std::equal(out.begin(), out.end(), ref.begin(), ref.end());
}

/// Quickhull leaves its hull_count() hull points at the front, sorted and
/// unique. They must include every strict vertex of the reference hull.
/// When farthest-point distances tie, quickhull can also keep a point that
/// lies on a hull edge between two vertices; such boundary points are
/// accepted, any other point is not.
inline bool check_hull(std::span<const Pt> out, std::uint64_t hull_count, const HullRef& ref) {
    if (hull_count > out.size()) return false;
    const std::span<const Pt> got = out.first(hull_count);
    std::size_t j = 0;  // next reference vertex to find
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (i > 0 && !(got[i - 1] < got[i])) return false;
        if (j < ref.sorted.size() && got[i] == ref.sorted[j]) {
            ++j;
        } else if ((j < ref.sorted.size() && ref.sorted[j] < got[i]) ||
                   !on_boundary(got[i], ref.ccw)) {
            return false;  // a vertex is missing, or the point is off the hull
        }
    }
    return j == ref.sorted.size();
}

/// Closest pair stores Pt{squared distance, 0} at out[0].
inline bool check_closest(std::span<const Pt> out, std::uint64_t ref) {
    return !out.empty() && out[0].x >= 0 && static_cast<std::uint64_t>(out[0].x) == ref &&
           out[0].y == 0;
}

/// Karatsuba overwrites its [lhs | rhs] input with the 2n − 1 product
/// coefficients and a zero pad.
inline bool check_product(std::span<const std::int64_t> out,
                          const std::vector<std::int64_t>& ref) {
    return out.size() == ref.size() + 1 && std::equal(ref.begin(), ref.end(), out.begin()) &&
           out.back() == 0;
}

}  // namespace perfbench
