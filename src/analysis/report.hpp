// Structured output of the hpu::analysis correctness passes (wave race
// detector, schedule-independence checker) and of the check of the
// executed schedule (verify::check_plan). The executors in src/core run
// them when ExecOptions::validate is on and attach the resulting
// AnalysisReport to their ExecReport, so callers get diagnostics alongside
// the timing telemetry.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hpu::analysis {

enum class Severity : std::uint8_t {
    kWarning,  ///< suspicious but possibly intended
    kError,    ///< breaks the independence contract the schedulers rely on
};

enum class FindingKind : std::uint8_t {
    kWriteWriteRace,     ///< two work-items write the same word in one launch
    kReadWriteRace,      ///< one item reads a word another item writes
    kOrderDependent,     ///< permuted item order changed the launch's output
    kFootprintViolation,  ///< runtime access outside the declared footprint
    kLaunchSkipped,  ///< budget-capped launch surfaced via fail_on_skip
    kExtentOverlap,  ///< two dynamic tasks of one level declare overlapping extents
    kScheduleViolation,  ///< the executed schedule broke a verify::check_plan invariant
};

const char* to_string(FindingKind k) noexcept;
const char* to_string(Severity s) noexcept;

/// One diagnosed defect. `launch` names the owning launch / trace span
/// (executors label launches "<algo>/<phase>[<tasks> tasks]"), or the run
/// ("<algo>/<executor>") for a schedule violation; the item and wave
/// fields are only meaningful for the race/order kinds.
struct Finding {
    FindingKind kind;
    Severity severity = Severity::kError;
    std::string launch;           ///< owning launch or run label
    std::uint64_t item_a = 0;     ///< first involved work-item (races)
    std::uint64_t item_b = 0;     ///< second involved work-item (races)
    std::uint64_t wave_a = 0;     ///< wave of item_a (item_a / g)
    std::uint64_t wave_b = 0;     ///< wave of item_b
    std::uint64_t address = 0;    ///< conflicting word index (races/order)
    std::string detail;           ///< human-readable, actionable message

    /// "error[write-write-race] mergesort/gpu-level[8 tasks]: ..." form.
    std::string message() const;
};

/// Aggregate result of all passes over one executor run.
struct AnalysisReport {
    std::vector<Finding> findings;
    std::uint64_t launches_checked = 0;  ///< launches/levels the detector saw
    std::uint64_t launches_skipped = 0;  ///< traces over the size cap (not silent)
    std::uint64_t findings_suppressed = 0;  ///< found beyond the per-launch cap

    /// True when no error-severity finding was recorded. Warnings do not
    /// make a run unclean; tests that want zero noise check findings.empty().
    bool clean() const noexcept;
    bool has(FindingKind k) const noexcept;

    void add(Finding f) { findings.push_back(std::move(f)); }
    void merge(const AnalysisReport& other);

    /// One line per finding plus a counter footer.
    std::string summary() const;
    void print(std::ostream& os) const;
};

}  // namespace hpu::analysis
