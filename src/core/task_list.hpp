// Dynamic task lists for irregular divide-and-conquer trees.
//
// The regular executors (core/executors.hpp) never materialize a task
// list: level i of a regular LevelAlgorithm has exactly a^i equal tasks
// whose slices follow from offsets alone. Irregular algorithms (quickhull,
// closest-pair, Karatsuba — see core/level_algorithm.hpp's
// IrregularLevelAlgorithm) produce their level's tasks *at run time*, with
// variable arity, uneven extents, empty branches, and early termination.
// TaskDesc/TaskList are the vocabulary those algorithms and the irregular
// engine (core/irregular.hpp) exchange; the per-level shape statistics
// feed the observed-width scheduler (model/observed.hpp) and the
// width/imbalance trace attributes (trace/span.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace hpu::core {

/// One dynamic task: a contiguous word extent [begin, end) plus an
/// algorithm-owned tag (node id, orientation bit, ...). Extents of one
/// level's non-empty tasks must be pairwise disjoint — the engine checks
/// this under validation (analysis::detect_extent_overlaps) and the exact
/// race detector checks the logged accesses behind the declaration.
struct TaskDesc {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;    ///< one past the last word; end <= begin = empty
    std::uint64_t tag = 0;    ///< algorithm payload, opaque to the engine

    std::uint64_t size() const noexcept { return end > begin ? end - begin : 0; }
    bool empty() const noexcept { return end <= begin; }

    friend bool operator==(const TaskDesc&, const TaskDesc&) = default;
};

/// Where one divide appends its children: a run of `capacity` slots (the
/// algorithm's a()) in a flat per-level buffer the expand sweep owns, so a
/// divide allocates nothing. The slots may be uninitialised storage; each
/// push_back constructs its child in place.
class ChildSlots {
public:
    ChildSlots(TaskDesc* slots, std::uint64_t capacity) noexcept
        : slots_(slots), capacity_(capacity) {}

    void push_back(const TaskDesc& t) {
        HPU_CHECK(count_ < capacity_, "divide_task appended more than a() children");
        std::construct_at(slots_ + count_, t);
        ++count_;
    }

    std::uint64_t size() const noexcept { return count_; }
    bool empty() const noexcept { return count_ == 0; }
    const TaskDesc* begin() const noexcept { return slots_; }
    const TaskDesc* end() const noexcept { return slots_ + count_; }

private:
    TaskDesc* slots_;
    std::uint64_t capacity_;
    std::uint64_t count_ = 0;
};

/// The tasks of one level of an irregular tree, in schedule order. An
/// empty list terminates the expansion.
struct TaskList {
    std::vector<TaskDesc> tasks;

    std::uint64_t width() const noexcept { return tasks.size(); }
    bool empty() const noexcept { return tasks.empty(); }

    /// Total words covered by the level ("frontier" size — what a hybrid
    /// level exchange would ship).
    std::uint64_t extent_words() const noexcept {
        std::uint64_t w = 0;
        for (const TaskDesc& t : tasks) w += t.size();
        return w;
    }

    /// Tasks with an empty extent (spawned-but-dead branches; still counted
    /// by the span conservation invariant).
    std::uint64_t empty_tasks() const noexcept {
        std::uint64_t c = 0;
        for (const TaskDesc& t : tasks) c += t.empty() ? 1 : 0;
        return c;
    }

    /// Shape skew of the level: max non-empty extent over mean non-empty
    /// extent. 1.0 for a perfectly regular level, 0.0 when every task is
    /// empty (or the list is).
    double imbalance() const noexcept {
        std::uint64_t total = 0, live = 0, max_sz = 0;
        for (const TaskDesc& t : tasks) {
            if (t.empty()) continue;
            ++live;
            total += t.size();
            max_sz = std::max(max_sz, t.size());
        }
        if (live == 0 || total == 0) return 0.0;
        return static_cast<double>(max_sz) * static_cast<double>(live) /
               static_cast<double>(total);
    }
};

}  // namespace hpu::core
