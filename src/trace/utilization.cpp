#include "trace/utilization.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/estimate.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

namespace hpu::trace {

UtilizationReport derive_utilization(const TraceSession& session, const sim::HpuParams& hw,
                                     const model::Recurrence& rec,
                                     double device_ops_multiplier) {
    UtilizationReport rep;
    const auto& spans = session.spans();
    if (spans.empty()) return rep;

    // Traced interval and per-span root (parents precede children, so one
    // forward pass resolves the chains).
    sim::Ticks lo = spans.front().start, hi = spans.front().end;
    std::vector<SpanId> root_of(spans.size() + 1, kNoSpan);
    for (const Span& s : spans) {
        lo = std::min(lo, s.start);
        hi = std::max(hi, s.end);
        root_of[s.id] = s.parent == kNoSpan ? s.id : root_of[s.parent];
    }
    rep.interval = hi - lo;

    UnitUtilization cpu{Unit::kCpu, 0, 0, 0, 0}, gpu{Unit::kGpu, 0, 0, 0, 0},
        link{Unit::kLink, 0, 0, 0, 0};
    double wave_time = 0.0, wave_lane_time = 0.0;
    double level_wave_time = 0.0, level_lane_time = 0.0;
    double words = 0.0;
    std::map<std::uint64_t, LevelDrift> by_level;

    for (const Span& s : spans) {
        if (s.kind == SpanKind::kWave) {
            wave_time += s.duration();
            wave_lane_time += s.duration() * static_cast<double>(s.attrs.items) /
                              static_cast<double>(hw.gpu.g);
            continue;
        }
        if (!is_work(s)) continue;
        UnitUtilization* u = nullptr;
        switch (s.unit) {
            case Unit::kCpu: u = &cpu; break;
            case Unit::kGpu: u = &gpu; break;
            case Unit::kLink: u = &link; break;
            case Unit::kHost: u = &cpu; break;  // host pre-passes occupy the CPU
        }
        u->busy += s.duration();
        u->work += s.attrs.work;
        if (s.kind == SpanKind::kTransfer) {
            ++rep.transfers;
            words += static_cast<double>(s.attrs.items);
        }
        if (s.kind == SpanKind::kLevel || s.kind == SpanKind::kLeaves) {
            // Analytic runs have no wave spans; levels still know their
            // item/wave counts, giving a coarser occupancy estimate.
            if (s.unit == Unit::kGpu && s.attrs.waves > 0) {
                level_wave_time += s.duration();
                level_lane_time += s.duration() * static_cast<double>(s.attrs.items) /
                                   (static_cast<double>(s.attrs.waves) *
                                    static_cast<double>(hw.gpu.g));
            }
            const double n = static_cast<double>(session.span(root_of[s.id]).attrs.items);
            LevelDrift& d = by_level[s.attrs.level];
            d.level = s.attrs.level;
            (s.unit == Unit::kGpu ? d.on_gpu : d.on_cpu) = true;
            d.tasks += s.attrs.tasks;
            d.observed += s.duration();
            d.predicted +=
                obs::price_span(s, hw, obs::model_item_ops(s, n, rec, device_ops_multiplier));
        }
    }

    for (UnitUtilization* u : {&cpu, &gpu, &link}) {
        u->idle = std::max(0.0, rep.interval - u->busy);
        u->utilization = rep.interval > 0.0 ? u->busy / rep.interval : 0.0;
    }
    rep.units = {cpu, gpu, link};

    rep.gpu_lane_occupancy = wave_time > 0.0 ? wave_lane_time / wave_time
                             : level_wave_time > 0.0 ? level_lane_time / level_wave_time
                                                     : 0.0;
    rep.link_utilization = link.utilization;
    rep.effective_bandwidth = link.busy > 0.0 ? words / link.busy : 0.0;
    rep.peak_bandwidth = hw.link.delta > 0.0 ? 1.0 / hw.link.delta : 0.0;
    const double total_work = cpu.work + gpu.work;
    rep.gpu_work_share = total_work > 0.0 ? gpu.work / total_work : 0.0;

    // Execution order (bottom-up): the leaf sweep first, then levels
    // deepest-first — kNoLevel is the largest uint64, so reverse numeric
    // order does both.
    for (const auto& [level, drift] : by_level) rep.levels.push_back(drift);
    std::sort(rep.levels.begin(), rep.levels.end(),
              [](const LevelDrift& a, const LevelDrift& b) { return a.level > b.level; });
    for (LevelDrift& d : rep.levels) d.drift = obs::drift_ratio(d.observed, d.predicted);
    return rep;
}

void UtilizationReport::print(std::ostream& os) const {
    util::Table units_t({"unit", "busy", "idle", "utilization", "work"}, 4);
    for (const UnitUtilization& u : units) {
        units_t.add_row({std::string(to_string(u.unit)), u.busy, u.idle, u.utilization,
                         u.work});
    }
    units_t.print(os);
    os << "gpu lane occupancy: " << gpu_lane_occupancy
       << "   gpu work share: " << gpu_work_share << "   transfers: " << transfers;
    if (peak_bandwidth > 0.0) {
        os << "   link bandwidth: " << effective_bandwidth << " / " << peak_bandwidth
           << " words per tick";
    }
    os << "\n\n";
    util::Table drift_t({"level", "units", "tasks", "observed", "predicted", "drift"}, 4);
    for (const LevelDrift& d : levels) {
        const std::string where = d.on_cpu && d.on_gpu ? "cpu+gpu" : d.on_gpu ? "gpu" : "cpu";
        drift_t.add_row({d.level == SpanAttrs::kNoLevel
                             ? std::string("leaves")
                             : std::to_string(d.level),
                         where, static_cast<std::int64_t>(d.tasks), d.observed, d.predicted,
                         d.drift});
    }
    drift_t.print(os);
}

std::string UtilizationReport::summary() const {
    std::ostringstream os;
    print(os);
    return os.str();
}

}  // namespace hpu::trace
