// Wave race detector. Consumes the per-work-item read/write sets recorded
// through OpCounter::log_read/log_write (sim/access_log.hpp) and reports
// every word that two distinct work-items of the same launch both write
// (write-write) or that one item reads while another writes (read-write).
//
// Alg. 3 of the paper — and therefore every scheduler in src/core — is only
// correct if the work-items of a launch are independent; this pass turns
// that assumption into a checked property. Detection is exact: access sets
// are concretized word by word (strided column walks included), so disjoint
// interleaved columns never alias. Launches whose traces exceed
// RaceOptions::max_words are counted in AnalysisReport::launches_skipped
// rather than silently half-checked.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "analysis/report.hpp"
#include "sim/access_log.hpp"

namespace hpu::analysis {

struct RaceOptions {
    /// Concretization budget: total words across all items of one launch.
    std::uint64_t max_words = 1ull << 22;
    /// At most this many findings are materialized per launch; the rest is
    /// tallied in AnalysisReport::findings_suppressed.
    std::uint64_t max_findings = 8;
    /// When set, a launch skipped for exceeding max_words is not merely
    /// counted: it also records a kLaunchSkipped error finding, so
    /// validation cannot silently under-cover a run.
    bool fail_on_skip = false;
};

/// Checks one launch. `items[j]` is work-item j's access log; `wave_width`
/// is the device's g (or the CPU's p for CPU levels) used for wave
/// attribution in diagnostics; `launch_label` names the owning launch /
/// trace span. Findings and counters are appended to `report`.
void detect_races(std::span<const sim::ItemAccessLog> items, std::uint64_t wave_width,
                  std::string_view launch_label, AnalysisReport& report,
                  const RaceOptions& opts = {});

/// Contiguous word extent [begin, end) a dynamic task declares as its own
/// (irregular trees — see core/task_list.hpp; this layer keeps its own
/// plain struct so analysis stays below core in the dependency order).
struct Extent {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/// Declared-extent disjointness over a dynamic task list: non-empty
/// extents of one level must be pairwise disjoint, or the level's tasks
/// cannot be independent. O(W log W) over the declarations — the cheap
/// first line before detect_races concretizes the logged accesses behind
/// them (a task that *lies* about its extent is still caught by the exact
/// detector). Each overlap is a kExtentOverlap error finding; at most
/// `opts.max_findings` are materialized, the rest tallied in
/// AnalysisReport::findings_suppressed.
void detect_extent_overlaps(std::span<const Extent> extents, std::string_view launch_label,
                            AnalysisReport& report, const RaceOptions& opts = {});

}  // namespace hpu::analysis
