#include "util/makespan.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <vector>

#include "util/check.hpp"
#include "util/math.hpp"

namespace hpu::util {

namespace {

// Min-heap entry: (load, core index).
using Slot = std::pair<std::uint64_t, std::size_t>;

std::vector<std::size_t> ordered_indices(std::span<const std::uint64_t> costs, ListOrder order) {
    std::vector<std::size_t> idx(costs.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    if (order == ListOrder::kLpt) {
        std::stable_sort(idx.begin(), idx.end(),
                         [&](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });
    }
    return idx;
}

}  // namespace

std::uint64_t makespan(std::span<const std::uint64_t> costs, std::size_t cores, ListOrder order) {
    HPU_CHECK(cores >= 1, "need at least one core");
    if (costs.empty()) return 0;
    // Uniform-cost fast path: list scheduling of m identical tasks on c
    // cores is exactly ceil(m/c) rounds regardless of order. Deep
    // recursion-tree levels have millions of identical tasks; skipping the
    // heap matters there.
    if (std::all_of(costs.begin(), costs.end(),
                    [&](std::uint64_t c) { return c == costs.front(); })) {
        return uniform_makespan(costs.size(), costs.front(), cores);
    }
    std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
    for (std::size_t c = 0; c < cores; ++c) heap.emplace(0, c);
    std::uint64_t max_load = 0;
    for (std::size_t i : ordered_indices(costs, order)) {
        auto [load, core] = heap.top();
        heap.pop();
        const std::uint64_t next = load + costs[i];
        max_load = std::max(max_load, next);
        heap.emplace(next, core);
    }
    return max_load;
}

std::uint64_t uniform_makespan(std::uint64_t tasks, std::uint64_t cost_each, std::size_t cores) {
    HPU_CHECK(cores >= 1, "need at least one core");
    return ceil_div(tasks, cores) * cost_each;
}

}  // namespace hpu::util
