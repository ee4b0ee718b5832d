// Buffer-residency lint. Replays a DeviceBuffer's event log (recorded via
// DeviceBuffer::set_trace) and flags the residency anti-patterns the
// simulated memory model makes observable:
//
//   * redundant-transfer (warning): a full copy to a side that is already
//     valid moves words the destination already has;
//   * in-flight-read (error): a device access (device_region) over a range
//     whose streamed chunk has a later arrival tick — the kernel ran before
//     the words crossed the link.
#pragma once

#include <span>
#include <string_view>

#include "analysis/report.hpp"
#include "sim/buffer.hpp"

namespace hpu::analysis {

/// Lints one buffer's log. `buffer_label` names the buffer in diagnostics
/// (executors use "<algo>/device-buffer"). Findings append to `report`.
void lint_residency(std::span<const sim::BufferEvent> log, std::string_view buffer_label,
                    AnalysisReport& report);

}  // namespace hpu::analysis
