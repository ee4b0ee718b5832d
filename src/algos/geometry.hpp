// Shared 2D integer geometry for the irregular algorithms (quickhull,
// closest-pair). Coordinates are int64; predicates widen to 128 bits so
// cross products and squared distances never overflow for any coordinates
// the tests generate (|x|, |y| well below 2^31).
#pragma once

#include <cstdint>

namespace hpu::algos {

/// 128-bit signed intermediate for the geometric predicates (__extension__
/// keeps -Wpedantic quiet about the GCC/Clang builtin type).
__extension__ typedef __int128 i128;

struct Pt {
    std::int64_t x = 0;
    std::int64_t y = 0;

    friend bool operator==(const Pt&, const Pt&) = default;
    /// Lexicographic (x, then y) — the canonical order of hull output and
    /// of the closest-pair x-sort.
    friend bool operator<(const Pt& a, const Pt& b) {
        return a.x != b.x ? a.x < b.x : a.y < b.y;
    }
};

/// Twice the signed area of triangle (o, a, b): > 0 when b is strictly left
/// of the directed line o→a.
inline i128 cross(const Pt& o, const Pt& a, const Pt& b) {
    const i128 ax = a.x - o.x, ay = a.y - o.y;
    const i128 bx = b.x - o.x, by = b.y - o.y;
    return ax * by - ay * bx;
}

/// Dot product (a − o)·(b − o): how far b lies along the direction o→a.
inline i128 along(const Pt& o, const Pt& a, const Pt& b) {
    const i128 ax = a.x - o.x, ay = a.y - o.y;
    const i128 bx = b.x - o.x, by = b.y - o.y;
    return ax * bx + ay * by;
}

/// Squared Euclidean distance.
inline std::uint64_t dist2(const Pt& a, const Pt& b) {
    const i128 dx = a.x - b.x, dy = a.y - b.y;
    return static_cast<std::uint64_t>(dx * dx + dy * dy);
}

}  // namespace hpu::algos
