#include "obs/critpath.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <utility>

#include "util/table.hpp"

namespace hpu::obs {
namespace {

using trace::canonical_label;
using trace::child_index;
using trace::is_work;
using trace::Span;
using trace::SpanId;
using trace::SpanKind;
using trace::TraceSession;

CritResource resource_of(const Span& s) noexcept {
    switch (s.kind) {
        case SpanKind::kTransfer: return CritResource::kLink;
        case SpanKind::kHook: return CritResource::kHook;
        default:
            return s.unit == trace::Unit::kGpu ? CritResource::kGpu : CritResource::kCpu;
    }
}

/// All span ids in the subtree under `root`, root excluded.
std::vector<SpanId> subtree_of(const std::vector<std::vector<SpanId>>& ch, SpanId root) {
    std::vector<SpanId> out;
    std::vector<SpanId> stack(ch[root].begin(), ch[root].end());
    while (!stack.empty()) {
        const SpanId id = stack.back();
        stack.pop_back();
        out.push_back(id);
        stack.insert(stack.end(), ch[id].begin(), ch[id].end());
    }
    return out;
}

/// Walks backwards from the run's end tick, standing at each instant on
/// the latest-finishing unused work span at or before the frontier.
/// Returns the chain in time order; gaps where no work span ends become
/// the steps' gap_before (leading gap) and trailing idle.
std::vector<CritStep> walk_chain(const TraceSession& session,
                                 const std::vector<SpanId>& work, const Span& run,
                                 sim::Ticks tol) {
    std::vector<CritStep> chain;  // built back-to-front
    std::vector<bool> used(work.size(), false);
    sim::Ticks frontier = run.end;
    SpanId last_parent = trace::kNoSpan;
    for (std::size_t guard = 0; guard < work.size(); ++guard) {
        if (frontier <= run.start + tol) break;
        // Latest end at or before the frontier, over unused work spans.
        sim::Ticks best_end = run.start;
        bool found = false;
        for (std::size_t i = 0; i < work.size(); ++i) {
            if (used[i]) continue;
            const Span& s = session.span(work[i]);
            if (s.end > frontier + tol) continue;
            if (!found || s.end > best_end) {
                best_end = s.end;
                found = true;
            }
        }
        if (!found) break;
        // Tie-break ends within tol: stay in the current chain span's
        // phase, then take the longer span, then the earlier-recorded one.
        std::size_t pick = work.size();
        for (std::size_t i = 0; i < work.size(); ++i) {
            if (used[i]) continue;
            const Span& s = session.span(work[i]);
            if (s.end > frontier + tol || s.end < best_end - tol) continue;
            if (pick == work.size()) {
                pick = i;
                continue;
            }
            const Span& cur = session.span(work[pick]);
            const bool s_same = s.parent == last_parent;
            const bool cur_same = cur.parent == last_parent;
            if (s_same != cur_same) {
                if (s_same) pick = i;
                continue;
            }
            if (s.end != cur.end) {
                if (s.end > cur.end) pick = i;
                continue;
            }
            if (s.duration() > cur.duration()) pick = i;
        }
        const Span& chosen = session.span(work[pick]);
        used[pick] = true;
        last_parent = chosen.parent;
        sim::Ticks gap = frontier - chosen.end;
        if (gap < tol) gap = 0.0;
        if (!chain.empty()) {
            chain.back().gap_before = gap;  // back() is the step *after* chosen
        }
        // Trailing idle (chain empty, gap > 0) is recovered by the caller
        // from makespan minus the summed chain durations.
        CritStep step;
        step.id = chosen.id;
        step.kind = chosen.kind;
        step.unit = chosen.unit;
        step.resource = resource_of(chosen);
        step.label = chosen.label;
        step.start = chosen.start;
        step.end = chosen.end;
        step.level = chosen.attrs.level;
        chain.push_back(std::move(step));
        frontier = chosen.start;
    }
    if (!chain.empty()) {
        sim::Ticks lead = frontier - run.start;
        if (lead < tol) lead = 0.0;
        chain.back().gap_before = lead;
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

/// Slack of each direct phase child of the run against its sync point:
/// phases whose intervals overlap form one fork-join group, the group's
/// sync is its latest end, and a phase's slack is how much later it could
/// have finished without moving that sync.
std::vector<std::pair<SpanId, sim::Ticks>> phase_slack(
    const TraceSession& session, const std::vector<std::vector<SpanId>>& ch,
    SpanId run_root, sim::Ticks tol) {
    std::vector<const Span*> phases;
    for (SpanId id : ch[run_root]) {
        const Span& s = session.span(id);
        if (s.kind == SpanKind::kPhase) phases.push_back(&s);
    }
    std::sort(phases.begin(), phases.end(),
              [](const Span* a, const Span* b) { return a->start < b->start; });
    std::vector<std::pair<SpanId, sim::Ticks>> out;
    std::size_t i = 0;
    while (i < phases.size()) {
        std::size_t j = i;
        sim::Ticks group_end = phases[i]->end;
        while (j + 1 < phases.size() && phases[j + 1]->start < group_end - tol) {
            ++j;
            group_end = std::max(group_end, phases[j]->end);
        }
        for (std::size_t k = i; k <= j; ++k) {
            sim::Ticks slack = group_end - phases[k]->end;
            if (slack < tol) slack = 0.0;
            out.emplace_back(phases[k]->id, slack);
        }
        i = j + 1;
    }
    return out;
}

}  // namespace

const char* to_string(CritResource r) noexcept {
    switch (r) {
        case CritResource::kCpu: return "cpu";
        case CritResource::kGpu: return "gpu";
        case CritResource::kLink: return "link";
        case CritResource::kHook: return "hook";
        case CritResource::kIdle: return "idle";
    }
    return "?";
}

double CritPathReport::share_of(CritResource r) const noexcept {
    switch (r) {
        case CritResource::kCpu: return cpu_share;
        case CritResource::kGpu: return gpu_share;
        case CritResource::kLink: return link_share;
        case CritResource::kHook: return hook_share;
        case CritResource::kIdle: return idle_share;
    }
    return 0.0;
}

sim::Ticks CritPathReport::ticks_of(CritResource r) const noexcept {
    switch (r) {
        case CritResource::kCpu: return cpu_ticks;
        case CritResource::kGpu: return gpu_ticks;
        case CritResource::kLink: return link_ticks;
        case CritResource::kHook: return hook_ticks;
        case CritResource::kIdle: return idle_ticks;
    }
    return 0.0;
}

void CritPathReport::print(std::ostream& os) const {
    if (!attempted) {
        os << "critical path: not attempted (no trace)\n";
        return;
    }
    os << "critical path: " << run_label << " makespan " << makespan << " ticks, "
       << chain.size() << " step(s)\n";
    os << "  dominant: " << to_string(dominant) << " (" << dominant_share * 100.0
       << "% of makespan)\n";
    os << "  blame:";
    for (CritResource r : {CritResource::kCpu, CritResource::kGpu, CritResource::kLink,
                           CritResource::kHook, CritResource::kIdle}) {
        os << " " << to_string(r) << " " << share_of(r) * 100.0 << "%";
    }
    os << "\n";
    util::Table t({"#", "span", "kind", "unit", "res", "start", "ticks", "gap"}, 4);
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const CritStep& s = chain[i];
        t.add_row({static_cast<std::int64_t>(i + 1), s.label,
                   std::string(trace::to_string(s.kind)),
                   std::string(trace::to_string(s.unit)),
                   std::string(to_string(s.resource)), s.start, s.duration(),
                   s.gap_before});
    }
    t.print(os);
    if (slack.empty()) return;
    os << "per-level slack:\n";
    util::Table st({"unit", "level", "span", "busy", "critical", "slack"}, 4);
    for (const LevelSlack& row : slack) {
        st.add_row({std::string(trace::to_string(row.unit)),
                    row.level == trace::SpanAttrs::kNoLevel
                        ? util::Cell{std::string("-")}
                        : util::Cell{static_cast<std::int64_t>(row.level)},
                    row.label, row.busy, row.critical, row.slack});
    }
    st.print(os);
}

CritPathReport extract_critical_path(const trace::TraceSession& session,
                                     trace::SpanId run_root) {
    CritPathReport rep;
    if (session.spans().empty()) return rep;
    if (run_root > session.spans().size()) return rep;
    const auto ch = child_index(session);
    if (run_root == trace::kNoSpan) {
        if (ch[trace::kNoSpan].empty()) return rep;
        run_root = ch[trace::kNoSpan].front();
    }
    const Span& run = session.span(run_root);

    rep.attempted = true;
    rep.run = run_root;
    rep.run_label = run.label;
    rep.start = run.start;
    rep.makespan = run.duration();
    if (rep.makespan <= 0.0) {
        rep.idle_share = 0.0;
        return rep;
    }
    const sim::Ticks tol = 1e-9 * std::max(1.0, rep.makespan);

    std::vector<SpanId> work;
    for (SpanId id : subtree_of(ch, run_root)) {
        const Span& s = session.span(id);
        if (is_work(s) && s.duration() > 0.0) work.push_back(id);
    }
    rep.chain = walk_chain(session, work, run, tol);

    sim::Ticks covered = 0.0;
    for (const CritStep& s : rep.chain) {
        const sim::Ticks d = s.duration();
        covered += d;
        switch (s.resource) {
            case CritResource::kCpu: rep.cpu_ticks += d; break;
            case CritResource::kGpu: rep.gpu_ticks += d; break;
            case CritResource::kLink: rep.link_ticks += d; break;
            case CritResource::kHook: rep.hook_ticks += d; break;
            case CritResource::kIdle: break;
        }
    }
    rep.idle_ticks = std::max(0.0, rep.makespan - covered);
    rep.cpu_share = rep.cpu_ticks / rep.makespan;
    rep.gpu_share = rep.gpu_ticks / rep.makespan;
    rep.link_share = rep.link_ticks / rep.makespan;
    rep.hook_share = rep.hook_ticks / rep.makespan;
    rep.idle_share = rep.idle_ticks / rep.makespan;
    rep.dominant = CritResource::kCpu;
    rep.dominant_share = rep.cpu_share;
    for (CritResource r : {CritResource::kGpu, CritResource::kLink, CritResource::kHook,
                           CritResource::kIdle}) {
        if (rep.share_of(r) > rep.dominant_share) {
            rep.dominant = r;
            rep.dominant_share = rep.share_of(r);
        }
    }

    // Per-(unit, level, label) slack rows over the work spans.
    const auto slacks = phase_slack(session, ch, run_root, tol);
    auto slack_of_phase = [&](SpanId phase) {
        for (const auto& [id, s] : slacks) {
            if (id == phase) return s;
        }
        return sim::Ticks{0.0};
    };
    std::vector<bool> on_chain(session.spans().size() + 1, false);
    for (const CritStep& s : rep.chain) on_chain[s.id] = true;
    struct Key {
        trace::Unit unit;
        std::uint64_t level;
        std::string label;
        bool operator<(const Key& o) const {
            if (unit != o.unit) return unit < o.unit;
            if (level != o.level) return level < o.level;
            return label < o.label;
        }
    };
    std::map<Key, LevelSlack> rows;
    for (SpanId id : work) {
        const Span& s = session.span(id);
        // Ancestor phase directly under the run (kNoSpan when the work
        // span hangs off the run itself — serial schedule, no fork-join).
        SpanId at = s.parent;
        SpanId phase = trace::kNoSpan;
        while (at != trace::kNoSpan && at != run_root) {
            const Span& a = session.span(at);
            if (a.parent == run_root && a.kind == SpanKind::kPhase) phase = at;
            at = a.parent;
        }
        const Key key{s.unit, s.attrs.level, canonical_label(s.label)};
        auto [it, inserted] = rows.try_emplace(key);
        LevelSlack& row = it->second;
        if (inserted) {
            row.unit = s.unit;
            row.level = s.attrs.level;
            row.label = key.label;
            row.slack = phase == trace::kNoSpan ? 0.0 : slack_of_phase(phase);
        } else if (phase != trace::kNoSpan) {
            row.slack = std::min(row.slack, slack_of_phase(phase));
        } else {
            row.slack = 0.0;
        }
        row.busy += s.duration();
        if (on_chain[id]) row.critical += s.duration();
    }
    rep.slack.reserve(rows.size());
    for (auto& [key, row] : rows) {
        if (row.critical > 0.0) row.slack = 0.0;  // carrying the chain: no slack
        rep.slack.push_back(std::move(row));
    }
    return rep;
}

void add_to_extras(trace::ChromeExtras& extras, const CritPathReport& rep) {
    if (!rep.attempted || rep.run == trace::kNoSpan) return;
    auto& run_args = extras.span_args[rep.run];
    run_args.emplace_back("crit_chain", static_cast<double>(rep.chain.size()));
    run_args.emplace_back("crit_cpu_share", rep.cpu_share);
    run_args.emplace_back("crit_gpu_share", rep.gpu_share);
    run_args.emplace_back("crit_link_share", rep.link_share);
    run_args.emplace_back("crit_hook_share", rep.hook_share);
    run_args.emplace_back("crit_idle_share", rep.idle_share);
    for (std::size_t i = 0; i < rep.chain.size(); ++i) {
        extras.span_args[rep.chain[i].id].emplace_back("crit",
                                                       static_cast<double>(i + 1));
        if (i + 1 < rep.chain.size()) {
            extras.flows.emplace_back(rep.chain[i].id, rep.chain[i + 1].id);
        }
    }
}

trace::ChromeExtras chrome_extras(const CritPathReport& rep) {
    trace::ChromeExtras extras;
    add_to_extras(extras, rep);
    return extras;
}

}  // namespace hpu::obs
