#include "analysis/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace hpu::analysis {

const char* to_string(FindingKind k) noexcept {
    switch (k) {
        case FindingKind::kWriteWriteRace: return "write-write-race";
        case FindingKind::kReadWriteRace: return "read-write-race";
        case FindingKind::kOrderDependent: return "order-dependent";
        case FindingKind::kFootprintViolation: return "footprint-violation";
        case FindingKind::kLaunchSkipped: return "launch-skipped";
        case FindingKind::kExtentOverlap: return "extent-overlap";
        case FindingKind::kScheduleViolation: return "schedule-violation";
    }
    return "unknown";
}

const char* to_string(Severity s) noexcept {
    return s == Severity::kError ? "error" : "warning";
}

std::string Finding::message() const {
    std::ostringstream os;
    os << to_string(severity) << '[' << to_string(kind) << "] " << launch << ": " << detail;
    return os.str();
}

bool AnalysisReport::clean() const noexcept {
    return std::none_of(findings.begin(), findings.end(),
                        [](const Finding& f) { return f.severity == Severity::kError; });
}

bool AnalysisReport::has(FindingKind k) const noexcept {
    return std::any_of(findings.begin(), findings.end(),
                       [k](const Finding& f) { return f.kind == k; });
}

void AnalysisReport::merge(const AnalysisReport& other) {
    findings.insert(findings.end(), other.findings.begin(), other.findings.end());
    launches_checked += other.launches_checked;
    launches_skipped += other.launches_skipped;
    findings_suppressed += other.findings_suppressed;
}

std::string AnalysisReport::summary() const {
    std::ostringstream os;
    print(os);
    return os.str();
}

void AnalysisReport::print(std::ostream& os) const {
    for (const Finding& f : findings) os << f.message() << '\n';
    os << "analysis: " << findings.size() << " finding(s), " << launches_checked
       << " launch(es) checked, " << launches_skipped << " skipped";
    if (findings_suppressed > 0) os << ", " << findings_suppressed << " finding(s) suppressed";
    os << '\n';
}

}  // namespace hpu::analysis
