// Blocked partition kernel (DESIGN.md §14, §15): the host data pass of a
// divide that splits its extent by a per-element side, in the shape Tzeng
// and Owens give quickhull's partition on the GPU — one flag pass that
// codes every element and counts each code, an exclusive scan of those
// counts over the blocks, and one scatter through per-code cursors.
//
// Every pass runs over `blocks` equal slices of the extent: across the
// bound pool when blocks > 1, on the caller when blocks == 1 — the same
// loop either way, with no heap allocation (the per-block arrays are the
// caller's, at most kMaxPassBlocks long). The scatter keeps each code's
// elements in index order, so the output is the same bytes whatever the
// block count; like the merge kernel it moves wall time only.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "util/merge_path.hpp"
#include "util/thread_pool.hpp"

namespace hpu::util {

/// Most blocks one pass runs in; bounds the per-block arrays a task body
/// keeps on its stack.
inline constexpr std::size_t kMaxPassBlocks = 64;

/// Block count for a data pass over `n` elements under the binding `exec`:
/// one unless the kernel is on and merge_parts' gate passes (a usable pool
/// not mid-batch, n >= 2^15), capped at kMaxPassBlocks.
inline std::size_t pass_blocks(std::size_t n, const MergeExec& exec) {
    return exec.parallel_ok() ? std::min(merge_parts(n, exec.pool), kMaxPassBlocks) : 1;
}

/// Runs fn(k, lo, hi) for each of the `blocks` equal slices [lo, hi) of
/// [0, n): across `pool` when blocks > 1, on the caller otherwise.
template <typename Fn>
void for_blocks(ThreadPool* pool, std::size_t n, std::size_t blocks, Fn&& fn) {
    const auto run = [&](std::size_t k) { fn(k, n * k / blocks, n * (k + 1) / blocks); };
    if (blocks > 1 && pool != nullptr) {
        pool->parallel_for(blocks, run, /*grain=*/1);
    } else {
        for (std::size_t k = 0; k < blocks; ++k) run(k);
    }
}

/// Element counts of a K-way partition, one slot per code.
template <std::size_t K>
using CodeCounts = std::array<std::size_t, K>;

/// Flag pass: codes[i] = code(i) for i in [0, n), with each block's code
/// counts in counts[k]. `code` runs once per element, in index order
/// within its block, so it may stage the element on the side.
template <std::size_t K, typename CodeFn>
void classify_blocks(ThreadPool* pool, std::size_t n, std::size_t blocks, std::uint8_t* codes,
                     CodeCounts<K>* counts, CodeFn&& code) {
    for_blocks(pool, n, blocks, [&](std::size_t k, std::size_t lo, std::size_t hi) {
        CodeCounts<K> c{};
        for (std::size_t i = lo; i < hi; ++i) {
            const std::uint8_t v = code(i);
            codes[i] = v;
            ++c[v];
        }
        counts[k] = c;
    });
}

/// Sum of the per-block counts of classify_blocks.
template <std::size_t K>
CodeCounts<K> code_totals(const CodeCounts<K>* counts, std::size_t blocks) {
    CodeCounts<K> t{};
    for (std::size_t k = 0; k < blocks; ++k) {
        for (std::size_t c = 0; c < K; ++c) t[c] += counts[k][c];
    }
    return t;
}

/// Scan + scatter: the r-th element of code c (in index order) goes to
/// out[base[c] + r]. `counts` holds classify_blocks' per-block counts and
/// is overwritten with each block's starting cursors. `out` must not
/// overlap `src`.
template <std::size_t K, typename T>
void scatter_blocks(ThreadPool* pool, const T* src, const std::uint8_t* codes, std::size_t n,
                    std::size_t blocks, CodeCounts<K>* counts, CodeCounts<K> base, T* out) {
    for (std::size_t k = 0; k < blocks; ++k) {
        for (std::size_t c = 0; c < K; ++c) {
            const std::size_t here = counts[k][c];
            counts[k][c] = base[c];
            base[c] += here;
        }
    }
    for_blocks(pool, n, blocks, [&](std::size_t k, std::size_t lo, std::size_t hi) {
        CodeCounts<K> cur = counts[k];
        for (std::size_t i = lo; i < hi; ++i) out[cur[codes[i]]++] = src[i];
    });
}

}  // namespace hpu::util
