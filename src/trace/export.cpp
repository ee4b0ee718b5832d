#include "trace/export.hpp"

#include <fstream>
#include <limits>
#include <ostream>

namespace hpu::trace {
namespace {

/// Escapes a string for a JSON literal (labels are plain ASCII, but be
/// safe about quotes/backslashes/control characters).
std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// Track id per unit: stable small integers so Perfetto groups slices.
int track_of(Unit u) noexcept {
    switch (u) {
        case Unit::kHost: return 0;
        case Unit::kCpu: return 1;
        case Unit::kGpu: return 2;
        case Unit::kLink: return 3;
    }
    return 0;
}

/// Earliest wall-annotated start in the session, used to rebase the raw
/// steady-clock values to small session-relative offsets at export time.
std::uint64_t wall_epoch_of(const TraceSession& session) noexcept {
    std::uint64_t epoch = ~std::uint64_t{0};
    for (const Span& s : session.spans()) {
        if (s.wall_ns != 0 && s.wall_start_ns < epoch) epoch = s.wall_start_ns;
    }
    return epoch == ~std::uint64_t{0} ? 0 : epoch;
}

using ExtraArgs = std::vector<std::pair<std::string, double>>;

void write_args(std::ostream& os, const Span& s, std::uint64_t wall_epoch,
                const ExtraArgs* extra = nullptr) {
    os << "{\"kind\":\"" << to_string(s.kind) << "\",\"span_id\":" << s.id
       << ",\"parent\":" << s.parent;
    if (s.wall_ns != 0) {
        os << ",\"wall_start_ns\":" << (s.wall_start_ns - wall_epoch)
           << ",\"wall_ns\":" << s.wall_ns;
    }
    if (s.attrs.level != SpanAttrs::kNoLevel) os << ",\"level\":" << s.attrs.level;
    if (s.attrs.tasks != 0) os << ",\"tasks\":" << s.attrs.tasks;
    if (s.attrs.items != 0) os << ",\"items\":" << s.attrs.items;
    if (s.attrs.waves != 0) os << ",\"waves\":" << s.attrs.waves;
    if (s.attrs.ops != 0.0) os << ",\"ops\":" << s.attrs.ops;
    if (s.attrs.max_ops != 0.0) os << ",\"max_ops\":" << s.attrs.max_ops;
    if (s.attrs.work != 0.0) os << ",\"work\":" << s.attrs.work;
    if (s.attrs.bytes != 0) os << ",\"bytes\":" << s.attrs.bytes;
    if (s.attrs.coalesced_transactions != 0) {
        os << ",\"coalesced_transactions\":" << s.attrs.coalesced_transactions;
    }
    if (s.attrs.strided_transactions != 0) {
        os << ",\"strided_transactions\":" << s.attrs.strided_transactions;
    }
    if (s.attrs.extent_words != 0) os << ",\"extent_words\":" << s.attrs.extent_words;
    if (s.attrs.imbalance != 0.0) os << ",\"imbalance\":" << s.attrs.imbalance;
    if (extra != nullptr) {
        for (const auto& [key, value] : *extra) {
            os << ",\"" << json_escape(key) << "\":" << value;
        }
    }
    os << "}";
}

}  // namespace

void export_chrome(const TraceSession& session, std::ostream& os) {
    export_chrome(session, os, ChromeExtras{});
}

void export_chrome(const TraceSession& session, std::ostream& os,
                   const ChromeExtras& extras) {
    // Full double precision so a re-imported trace (obs/trace_io.hpp) is
    // bit-faithful to the session it came from — a file diffed against
    // itself must be exactly empty.
    const auto prec = os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    // Track-name metadata so Perfetto shows cpu/gpu/link instead of bare
    // tids.
    for (Unit u : {Unit::kHost, Unit::kCpu, Unit::kGpu, Unit::kLink}) {
        if (!first) os << ",";
        first = false;
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << track_of(u)
           << ",\"args\":{\"name\":\"" << to_string(u) << "\"}}";
    }
    const std::uint64_t wall_epoch = wall_epoch_of(session);
    for (const Span& s : session.spans()) {
        const ExtraArgs* extra = nullptr;
        if (!extras.span_args.empty()) {
            auto it = extras.span_args.find(s.id);
            if (it != extras.span_args.end()) extra = &it->second;
        }
        os << ",{\"ph\":\"X\",\"name\":\"" << json_escape(s.label) << "\",\"cat\":\""
           << to_string(s.kind) << "\",\"pid\":0,\"tid\":" << track_of(s.unit)
           << ",\"ts\":" << s.start << ",\"dur\":" << s.duration() << ",\"args\":";
        write_args(os, s, wall_epoch, extra);
        os << "}";
    }
    // Flow arrows from span end to span start: Perfetto draws them as
    // connected arrows when the "s"/"f" pair shares an id. Span ids out of
    // range are skipped rather than asserted — extras may outlive a
    // cleared session.
    int flow_id = 0;
    for (const auto& [from_id, to_id] : extras.flows) {
        if (from_id == kNoSpan || to_id == kNoSpan) continue;
        if (from_id > session.spans().size() || to_id > session.spans().size()) continue;
        const Span& from = session.span(from_id);
        const Span& to = session.span(to_id);
        ++flow_id;
        os << ",{\"ph\":\"s\",\"cat\":\"" << json_escape(extras.flow_cat)
           << "\",\"name\":\"" << json_escape(extras.flow_name) << "\",\"id\":" << flow_id
           << ",\"pid\":0,\"tid\":" << track_of(from.unit) << ",\"ts\":" << from.end
           << ",\"args\":{\"span_id\":" << from.id << "}}";
        os << ",{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"" << json_escape(extras.flow_cat)
           << "\",\"name\":\"" << json_escape(extras.flow_name) << "\",\"id\":" << flow_id
           << ",\"pid\":0,\"tid\":" << track_of(to.unit) << ",\"ts\":" << to.start
           << ",\"args\":{\"span_id\":" << to.id << "}}";
    }
    os << "]}\n";
    os.precision(prec);
}

void export_csv(const TraceSession& session, std::ostream& os) {
    const auto prec = os.precision(std::numeric_limits<double>::max_digits10);
    os << "id,parent,kind,unit,label,start,end,duration,level,tasks,items,waves,ops,"
          "max_ops,work,bytes,coalesced_transactions,strided_transactions,extent_words,"
          "imbalance,wall_start_ns,wall_ns\n";
    const std::uint64_t wall_epoch = wall_epoch_of(session);
    for (const Span& s : session.spans()) {
        // Labels follow the launch-label scheme (no commas/quotes), so no
        // CSV quoting is needed; assert-by-construction keeps this simple.
        os << s.id << ',' << s.parent << ',' << to_string(s.kind) << ',' << to_string(s.unit)
           << ',' << s.label << ',' << s.start << ',' << s.end << ',' << s.duration() << ',';
        if (s.attrs.level != SpanAttrs::kNoLevel) os << s.attrs.level;
        os << ',' << s.attrs.tasks << ',' << s.attrs.items << ',' << s.attrs.waves << ','
           << s.attrs.ops << ',' << s.attrs.max_ops << ',' << s.attrs.work << ','
           << s.attrs.bytes << ','
           << s.attrs.coalesced_transactions << ',' << s.attrs.strided_transactions << ','
           << s.attrs.extent_words << ',' << s.attrs.imbalance << ',';
        if (s.wall_ns != 0) os << (s.wall_start_ns - wall_epoch) << ',' << s.wall_ns;
        else os << "0,0";
        os << '\n';
    }
    os.precision(prec);
}

bool write_chrome_file(const TraceSession& session, const std::string& path) {
    return write_chrome_file(session, path, ChromeExtras{});
}

bool write_chrome_file(const TraceSession& session, const std::string& path,
                       const ChromeExtras& extras) {
    std::ofstream f(path);
    if (!f) return false;
    export_chrome(session, f, extras);
    return static_cast<bool>(f);
}

}  // namespace hpu::trace
