#include "analysis/residency.hpp"

#include <sstream>

namespace hpu::analysis {

namespace {

Finding make(FindingKind kind, Severity sev, std::string_view label, std::size_t event_index,
             std::string_view what) {
    Finding f;
    f.kind = kind;
    f.severity = sev;
    f.launch = std::string(label);
    std::ostringstream os;
    os << "event #" << event_index << ": " << what;
    f.detail = os.str();
    return f;
}

bool full_range(const sim::BufferEvent& e) { return e.offset == 0 && e.count == e.size; }

bool overlaps(const sim::BufferEvent& a, const sim::BufferEvent& b) {
    return a.offset < b.offset + b.count && b.offset < a.offset + a.count;
}

/// An in-flight chunk: a host→device copy whose words only become
/// usable on the device at `ready`.
struct InFlight {
    std::size_t event_index;
    const sim::BufferEvent* copy;
};

void check_in_flight(const std::vector<InFlight>& streamed, const sim::BufferEvent& access,
                     std::size_t access_index, std::string_view label,
                     AnalysisReport& report) {
    if (access.count == 0) return;
    for (const InFlight& f : streamed) {
        if (!overlaps(*f.copy, access)) continue;
        if (f.copy->ready > access.start) {
            std::ostringstream os;
            os << "kernel touches [" << access.offset << ", " << access.offset + access.count
               << ") at tick " << access.start << " but the streamed chunk ["
               << f.copy->offset << ", " << f.copy->offset + f.copy->count
               << ") (event #" << f.event_index << ") only arrives at tick "
               << f.copy->ready << " — sequence the launch on the chunk's Event";
            report.add(make(FindingKind::kInFlightRead, Severity::kError, label,
                            access_index, os.str()));
        }
    }
}

}  // namespace

void lint_residency(std::span<const sim::BufferEvent> log, std::string_view buffer_label,
                    AnalysisReport& report) {
    // Streamed host→device chunks seen so far, for the in-flight rule. A
    // later streamed copy of the same range supersedes the earlier one.
    std::vector<InFlight> streamed;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const sim::BufferEvent& e = log[i];
        switch (e.op) {
            case sim::BufferOp::kDeviceMut:
                check_in_flight(streamed, e, i, buffer_label, report);
                break;
            case sim::BufferOp::kCopyToDevice:
                if (e.device_valid_before && full_range(e)) {
                    report.add(make(FindingKind::kRedundantTransfer, Severity::kWarning,
                                    buffer_label, i,
                                    "full stream_to_device() but the device copy is already "
                                    "valid — the transfer moves words the device has"));
                }
                std::erase_if(streamed, [&](const InFlight& f) {
                    return f.copy->offset == e.offset && f.copy->count == e.count;
                });
                streamed.push_back({i, &e});
                break;
            case sim::BufferOp::kCopyToHost:
                if (e.host_valid_before && full_range(e)) {
                    report.add(make(FindingKind::kRedundantTransfer, Severity::kWarning,
                                    buffer_label, i,
                                    "full stream_to_host() but the host copy is already "
                                    "valid — the transfer moves words the host has"));
                }
                break;
        }
    }
}

}  // namespace hpu::analysis
