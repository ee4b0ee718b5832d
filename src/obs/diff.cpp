#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <tuple>

#include "util/table.hpp"

namespace hpu::obs {
namespace {

using trace::canonical_label;
using trace::child_index;
using trace::Span;
using trace::SpanId;
using trace::SpanKind;
using trace::TraceSession;
using trace::Unit;

/// Structural alignment key of a sibling group.
struct Key {
    SpanKind kind = SpanKind::kRun;
    Unit unit = Unit::kHost;
    std::uint64_t level = trace::SpanAttrs::kNoLevel;
    std::string label;

    bool operator<(const Key& o) const {
        return std::tie(kind, unit, level, label) <
               std::tie(o.kind, o.unit, o.level, o.label);
    }
};

struct DiffBuilder {
    const TraceSession& base;
    const TraceSession& cand;
    const DiffOptions& opts;
    std::vector<std::vector<SpanId>> base_children;
    std::vector<std::vector<SpanId>> cand_children;
    TraceDiff out;

    DiffBuilder(const TraceSession& b, const TraceSession& c, const DiffOptions& o)
        : base(b), cand(c), opts(o), base_children(child_index(b)),
          cand_children(child_index(c)) {}

    /// Sums durations / wall / irregular-shape attrs over a span-id list on
    /// one session (extent words sum; imbalance keeps the worst skew).
    static void sum_side(const TraceSession& s, const std::vector<SpanId>& ids,
                         sim::Ticks& ticks, std::uint64_t& wall, std::uint64_t& extent,
                         double& imbalance) {
        for (SpanId id : ids) {
            const Span& sp = s.span(id);
            ticks += sp.duration();
            wall += sp.wall_ns;
            extent += sp.attrs.extent_words;
            imbalance = std::max(imbalance, sp.attrs.imbalance);
        }
    }

    /// Emits one structural (one-sided) entry covering the listed spans'
    /// subtrees. A span's duration already covers its children, so no
    /// recursion is needed; the whole subtree is one signed delta.
    void emit_structural(const TraceSession& s, const std::vector<SpanId>& ids,
                         const Key& key, const std::string& path, int depth,
                         DiffSide side) {
        DiffEntry e;
        e.path = path;
        e.label = key.label;
        e.kind = key.kind;
        e.unit = key.unit;
        e.level = key.level;
        e.depth = depth;
        e.side = side;
        sim::Ticks ticks = 0.0;
        std::uint64_t wall = 0;
        std::uint64_t extent = 0;
        double imbalance = 0.0;
        sum_side(s, ids, ticks, wall, extent, imbalance);
        if (side == DiffSide::kBaseOnly) {
            e.base_spans = ids.size();
            e.base_ticks = ticks;
            e.base_wall_ns = wall;
            e.base_extent_words = extent;
            e.base_imbalance = imbalance;
            e.delta = -ticks;
        } else {
            e.cand_spans = ids.size();
            e.cand_ticks = ticks;
            e.cand_wall_ns = wall;
            e.cand_extent_words = extent;
            e.cand_imbalance = imbalance;
            e.delta = ticks;
        }
        e.self_delta = e.delta;
        ++out.structural;
        out.entries.push_back(std::move(e));
    }

    /// Aligns the children of a matched group and emits their entries in
    /// pre-order. Returns the summed delta of the entries emitted at this
    /// depth (the caller subtracts it to get its self_delta).
    sim::Ticks diff_children(const std::vector<SpanId>& base_ids,
                             const std::vector<SpanId>& cand_ids, const std::string& path,
                             int depth) {
        // Group both sides' children by key, base-side first-seen order,
        // then candidate-only keys in candidate order.
        std::map<Key, std::pair<std::vector<SpanId>, std::vector<SpanId>>> groups;
        std::vector<const Key*> order;
        auto add = [&](const TraceSession& s, SpanId id, bool is_base) {
            const Span& sp = s.span(id);
            if (sp.kind == SpanKind::kWave && !opts.include_waves) return;
            Key k{sp.kind, sp.unit, sp.attrs.level, canonical_label(sp.label)};
            auto [it, fresh] = groups.try_emplace(std::move(k));
            if (fresh) order.push_back(&it->first);
            (is_base ? it->second.first : it->second.second).push_back(id);
        };
        for (SpanId p : base_ids) {
            for (SpanId c : base_children[p]) add(base, c, true);
        }
        for (SpanId p : cand_ids) {
            for (SpanId c : cand_children[p]) add(cand, c, false);
        }

        sim::Ticks level_delta = 0.0;
        for (const Key* kp : order) {
            const auto& [b_ids, c_ids] = groups.at(*kp);
            const std::string sub_path =
                path.empty() ? kp->label : path + "/" + kp->label;
            if (b_ids.empty() || c_ids.empty()) {
                const DiffSide side =
                    b_ids.empty() ? DiffSide::kCandOnly : DiffSide::kBaseOnly;
                emit_structural(b_ids.empty() ? cand : base,
                                b_ids.empty() ? c_ids : b_ids, *kp, sub_path, depth, side);
                level_delta += out.entries.back().delta;
                continue;
            }
            DiffEntry e;
            e.path = sub_path;
            e.label = kp->label;
            e.kind = kp->kind;
            e.unit = kp->unit;
            e.level = kp->level;
            e.depth = depth;
            e.base_spans = b_ids.size();
            e.cand_spans = c_ids.size();
            sum_side(base, b_ids, e.base_ticks, e.base_wall_ns, e.base_extent_words,
                     e.base_imbalance);
            sum_side(cand, c_ids, e.cand_ticks, e.cand_wall_ns, e.cand_extent_words,
                     e.cand_imbalance);
            e.delta = e.cand_ticks - e.base_ticks;
            level_delta += e.delta;
            const std::size_t at = out.entries.size();
            out.entries.push_back(std::move(e));
            const sim::Ticks child_delta = diff_children(b_ids, c_ids, sub_path, depth + 1);
            out.entries[at].self_delta = out.entries[at].delta - child_delta;
        }
        return level_delta;
    }

    TraceDiff run() {
        const std::vector<SpanId>& base_roots = base_children[trace::kNoSpan];
        const std::vector<SpanId>& cand_roots = cand_children[trace::kNoSpan];
        const std::size_t paired = std::min(base_roots.size(), cand_roots.size());
        for (std::size_t i = 0; i < paired; ++i) {
            const Span& br = base.span(base_roots[i]);
            const Span& cr = cand.span(cand_roots[i]);
            out.base_total += br.duration();
            out.cand_total += cr.duration();
            out.base_wall_total += br.wall_ns;
            out.cand_wall_total += cr.wall_ns;
            // Roots pair positionally: a basic-vs-advanced diff aligns run
            // 1 with run 1 even though the labels differ.
            const std::string cb = canonical_label(br.label), cc = canonical_label(cr.label);
            DiffEntry e;
            e.label = cb == cc ? cb : cb + "→" + cc;
            e.path = e.label;
            e.kind = br.kind;
            e.unit = br.unit;
            e.level = br.attrs.level;
            e.depth = 0;
            e.base_spans = 1;
            e.cand_spans = 1;
            e.base_ticks = br.duration();
            e.cand_ticks = cr.duration();
            e.base_wall_ns = br.wall_ns;
            e.cand_wall_ns = cr.wall_ns;
            e.base_extent_words = br.attrs.extent_words;
            e.cand_extent_words = cr.attrs.extent_words;
            e.base_imbalance = br.attrs.imbalance;
            e.cand_imbalance = cr.attrs.imbalance;
            e.delta = e.cand_ticks - e.base_ticks;
            const std::size_t at = out.entries.size();
            // Copy the path before recursing: diff_children grows
            // out.entries, which would invalidate a reference into it.
            const std::string root_path = e.path;
            out.entries.push_back(std::move(e));
            const sim::Ticks child_delta =
                diff_children({base_roots[i]}, {cand_roots[i]}, root_path, 1);
            out.entries[at].self_delta = out.entries[at].delta - child_delta;
        }
        // Unpaired extra runs on either side are structural.
        for (std::size_t i = paired; i < base_roots.size(); ++i) {
            const Span& br = base.span(base_roots[i]);
            out.base_total += br.duration();
            out.base_wall_total += br.wall_ns;
            Key k{br.kind, br.unit, br.attrs.level, canonical_label(br.label)};
            emit_structural(base, {base_roots[i]}, k, k.label, 0, DiffSide::kBaseOnly);
        }
        for (std::size_t i = paired; i < cand_roots.size(); ++i) {
            const Span& cr = cand.span(cand_roots[i]);
            out.cand_total += cr.duration();
            out.cand_wall_total += cr.wall_ns;
            Key k{cr.kind, cr.unit, cr.attrs.level, canonical_label(cr.label)};
            emit_structural(cand, {cand_roots[i]}, k, k.label, 0, DiffSide::kCandOnly);
        }
        return std::move(out);
    }
};

std::string level_text(std::uint64_t level) {
    return level == trace::SpanAttrs::kNoLevel ? std::string("-") : std::to_string(level);
}

}  // namespace

const char* to_string(DiffSide side) noexcept {
    switch (side) {
        case DiffSide::kBoth: return "both";
        case DiffSide::kBaseOnly: return "base-only";
        case DiffSide::kCandOnly: return "cand-only";
    }
    return "?";
}

bool TraceDiff::identical(double eps) const noexcept {
    if (structural != 0) return false;
    for (const DiffEntry& e : entries) {
        if (e.base_spans != e.cand_spans) return false;
        if (std::abs(e.delta) > eps) return false;
    }
    return true;
}

std::vector<const DiffEntry*> TraceDiff::explain(std::size_t k) const {
    std::vector<const DiffEntry*> out;
    for (const DiffEntry& e : entries) {
        if (e.self_delta != 0.0) out.push_back(&e);
    }
    std::stable_sort(out.begin(), out.end(), [](const DiffEntry* a, const DiffEntry* b) {
        return std::abs(a->self_delta) > std::abs(b->self_delta);
    });
    if (out.size() > k) out.resize(k);
    return out;
}

void TraceDiff::print(std::ostream& os, std::size_t top_k) const {
    os << "trace diff: base " << base_total << " ticks, candidate " << cand_total
       << " ticks, delta " << delta();
    if (base_total > 0.0) os << " (" << (delta() / base_total * 100.0) << "%)";
    os << "\n";
    if (structural != 0) os << structural << " structural (one-sided) subtree(s)\n";
    util::Table t({"span", "side", "level", "spans", "base", "cand", "delta", "self"}, 4);
    for (const DiffEntry& e : entries) {
        std::string name(static_cast<std::size_t>(e.depth) * 2, ' ');
        if (e.side == DiffSide::kBaseOnly) name += "- ";
        if (e.side == DiffSide::kCandOnly) name += "+ ";
        name += e.label;
        std::string spans = std::to_string(e.base_spans);
        if (e.base_spans != e.cand_spans) {
            spans += '/';
            spans += std::to_string(e.cand_spans);
        }
        t.add_row({name, std::string(to_string(e.side)), level_text(e.level), spans,
                   e.base_ticks, e.cand_ticks, e.delta, e.self_delta});
    }
    t.print(os);
    const auto top = explain(top_k);
    if (!top.empty()) {
        os << "\ntop divergences (by |self delta|):\n";
        for (const DiffEntry* e : top) {
            os << "  " << e->path << ": " << (e->self_delta > 0 ? "+" : "")
               << e->self_delta << " ticks";
            if (e->side != DiffSide::kBoth) os << " [" << to_string(e->side) << "]";
            os << "\n";
        }
    }
}

void TraceDiff::print_markdown(std::ostream& os, std::size_t top_k) const {
    os << "**trace diff**: base " << base_total << " → candidate " << cand_total
       << " ticks (Δ " << delta();
    if (base_total > 0.0) os << ", " << (delta() / base_total * 100.0) << "%";
    os << "; " << structural << " structural)\n\n";
    os << "| span | side | base | cand | Δ | self Δ | extent Δ | imbalance |\n";
    os << "|---|---|---:|---:|---:|---:|---:|---:|\n";
    const auto top = explain(top_k);
    for (const DiffEntry* e : top) {
        os << "| `" << e->path << "` | " << to_string(e->side) << " | " << e->base_ticks
           << " | " << e->cand_ticks << " | " << e->delta << " | " << e->self_delta
           << " | ";
        // Irregular-tree shape: words the level's extents cover and the
        // extent skew, present only on dynamic-task-list traces.
        if (e->base_extent_words == 0 && e->cand_extent_words == 0) {
            os << "-";
        } else {
            os << (static_cast<std::int64_t>(e->cand_extent_words) -
                   static_cast<std::int64_t>(e->base_extent_words));
        }
        os << " | ";
        if (e->base_imbalance == 0.0 && e->cand_imbalance == 0.0) {
            os << "-";
        } else {
            os << e->base_imbalance << "→" << e->cand_imbalance;
        }
        os << " |\n";
    }
    if (top.empty()) os << "| (no divergence) | both | - | - | 0 | 0 | - | - |\n";
}

TraceDiff diff_traces(const trace::TraceSession& base, const trace::TraceSession& cand,
                      const DiffOptions& opts) {
    return DiffBuilder(base, cand, opts).run();
}

}  // namespace hpu::obs
