// Blocked transpose kernel (DESIGN.md §15): the host side of the §6.3
// coalesced mergesort's layout moves. The interleaved layout keeps element
// k of run j at k·runs + j, so turning runs row-major (or back) is a matrix
// transpose. Element by element, one side of it walks a column at a stride
// of `runs` words: a new cache line per element, and a new page once the
// stride passes 4 KiB. Tile by tile, every line read or written is used
// whole while it is in cache.
//
// Strictly a wall-clock layer, like the merge kernel: it moves the same
// words to the same places, whatever the tile or band count.
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/merge_path.hpp"
#include "util/partition.hpp"

namespace hpu::util {

/// Tile edge, in elements: a tile's rows and columns each span at most 16
/// elements, so a 4-byte tile covers one cache line per row.
inline constexpr std::size_t kTransposeTile = 16;

namespace transpose_detail {

/// One tile of at most rows × cols elements. Full tiles take the constant
/// bounds, which the compiler unrolls.
template <typename T>
void tile(const T* src, std::size_t src_stride, T* dst, std::size_t dst_stride,
          std::size_t rows, std::size_t cols) {
    if (rows == kTransposeTile && cols == kTransposeTile) {
        for (std::size_t c = 0; c < kTransposeTile; ++c) {
            for (std::size_t r = 0; r < kTransposeTile; ++r) {
                dst[c * dst_stride + r] = src[r * src_stride + c];
            }
        }
        return;
    }
    for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rows; ++r) dst[c * dst_stride + r] = src[r * src_stride + c];
    }
}

}  // namespace transpose_detail

/// dst[c·dst_stride + r] = src[r·src_stride + c] for r < rows, c < cols:
/// the rows × cols matrix at src written as its transpose at dst, tile by
/// tile. src and dst must not overlap.
template <typename T>
void transpose(const T* src, std::size_t src_stride, T* dst, std::size_t dst_stride,
               std::size_t rows, std::size_t cols) {
    for (std::size_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
        for (std::size_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
            transpose_detail::tile(src + r0 * src_stride + c0, src_stride,
                                   dst + c0 * dst_stride + r0, dst_stride,
                                   std::min(kTransposeTile, rows - r0),
                                   std::min(kTransposeTile, cols - c0));
        }
    }
}

/// The same transpose, in bands of rows across the bound pool when it is
/// free (pass_blocks' gate: the kernel on, a pool with workers that is not
/// mid-batch, at least 2^15 elements); on the caller otherwise.
template <typename T>
void transpose(const MergeExec& exec, const T* src, std::size_t src_stride, T* dst,
               std::size_t dst_stride, std::size_t rows, std::size_t cols) {
    const std::size_t bands = std::min(pass_blocks(rows * cols, exec), rows);
    for_blocks(exec.pool, rows, bands, [&](std::size_t, std::size_t lo, std::size_t hi) {
        transpose(src + lo * src_stride, src_stride, dst + lo, dst_stride, hi - lo, cols);
    });
}

}  // namespace hpu::util
