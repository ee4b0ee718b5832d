// Exporters for TraceSession span trees.
//
//  * Chrome trace-event JSON ("JSON Array Format" with a traceEvents
//    wrapper) — loads directly in Perfetto / chrome://tracing. Units map to
//    tracks (tid): concurrent CPU and GPU spans of the advanced hybrid
//    render as overlapping slices on separate tracks, and the two link
//    transfers appear as exactly two slices on the link track. Virtual
//    ticks are emitted as microseconds verbatim (the clock is virtual
//    anyway; only ratios matter).
//  * CSV — one row per span with all structured attributes, for ad-hoc
//    analysis in a spreadsheet or pandas.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/span.hpp"

namespace hpu::trace {

/// Optional decorations merged into a Chrome export: extra numeric args on
/// selected spans, plus flow arrows ("s"/"f" event pairs) drawn between span
/// endpoints. Used by obs::critpath to highlight the critical path as a
/// connected flow in chrome://tracing / Perfetto. Re-import (obs/trace_io)
/// skips flow events and unknown arg keys, so a decorated file round-trips
/// to the same session as an undecorated one.
struct ChromeExtras {
    /// Extra args appended to a span's "args" object, in the given order.
    std::map<SpanId, std::vector<std::pair<std::string, double>>> span_args;
    /// Flow arrows from the first span's end to the second span's start.
    std::vector<std::pair<SpanId, SpanId>> flows;
    std::string flow_cat = "critpath";
    std::string flow_name = "critical-path";

    bool empty() const noexcept { return span_args.empty() && flows.empty(); }
};

/// Writes the session as Chrome trace-event JSON.
void export_chrome(const TraceSession& session, std::ostream& os);

/// Writes the session as Chrome trace-event JSON with extra per-span args
/// and flow arrows.
void export_chrome(const TraceSession& session, std::ostream& os,
                   const ChromeExtras& extras);

/// Writes the session as CSV (header + one row per span).
void export_csv(const TraceSession& session, std::ostream& os);

/// Convenience: export_chrome into a file. Returns false (and writes
/// nothing) when the file cannot be opened.
bool write_chrome_file(const TraceSession& session, const std::string& path);

/// Convenience: decorated export_chrome into a file.
bool write_chrome_file(const TraceSession& session, const std::string& path,
                       const ChromeExtras& extras);

}  // namespace hpu::trace
