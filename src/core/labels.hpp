// The one label scheme shared by hpu::analysis findings and hpu::trace
// spans, so diagnostics from both layers can be joined on the label string
// (tests assert they match).
//
//   launch_label("mergesort", "gpu-level", 8)  -> "mergesort/gpu-level[8 tasks]"
//   phase_label("mergesort", "cpu-parallel")   -> "mergesort/cpu-parallel"
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace hpu::core {

/// Label of one launch/level: "<algo>/<phase>[<tasks> tasks]". Used as the
/// owning-event name in analysis findings and as the trace span label of
/// the same launch.
inline std::string launch_label(const std::string& name, const char* phase,
                                std::uint64_t tasks) {
    std::ostringstream os;
    os << name << '/' << phase << '[' << tasks << " tasks]";
    return os.str();
}

/// Label of a scheduler phase: "<algo>/<phase>". Used for trace
/// phase/transfer/hook spans.
inline std::string phase_label(const std::string& name, const char* phase) {
    return name + '/' + phase;
}

/// Launch phase of an element-wise device level (one work-item per
/// element, DESIGN.md §3.1).
inline constexpr const char* kElementwisePhase = "gpu-elementwise";

/// True when `label` is a launch_label of `phase`.
inline bool is_launch_of(const std::string& label, const char* phase) {
    return label.find('/' + std::string(phase) + '[') != std::string::npos;
}

}  // namespace hpu::core
