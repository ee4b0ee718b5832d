#include "verify/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "util/math.hpp"

namespace hpu::verify {

namespace {

double tol(double x) { return 1e-9 * std::max(1.0, x); }

bool region_overlap(const PlanEvent& a, const PlanEvent& b) {
    if (a.words == 0 || b.words == 0) return false;
    return a.offset < b.offset + b.words && b.offset < a.offset + a.words;
}

bool time_overlap(const PlanEvent& a, const PlanEvent& b) {
    const double end_a = a.start + a.duration;
    const double end_b = b.start + b.duration;
    return a.start < end_b - tol(end_b) && b.start < end_a - tol(end_a);
}

bool is_compute(const PlanEvent& e) {
    return e.kind == PlanEvent::Kind::kLevel || e.kind == PlanEvent::Kind::kLeaves;
}

void finding(VerifyReport& rep, VerifyFinding::Kind kind, const std::string& detail) {
    rep.findings.push_back(VerifyFinding{kind, detail});
}

}  // namespace

void check_plan(const SchedulePlan& plan, const sim::HpuParams& hw, VerifyReport& rep) {
    const double p = static_cast<double>(hw.cpu.p);
    const double g = static_cast<double>(hw.gpu.g);

    // --- Per-event capacity conservation: the duration the plan budgets
    // must cover the event's total work spread over the unit's parallel
    // slots (p task-streams / g lanes plus the launch overhead).
    for (const PlanEvent& e : plan.events) {
        if (!is_compute(e)) continue;
        bool ok = true;
        std::ostringstream why;
        if (e.unit == PlanEvent::Unit::kCpu) {
            ok = e.duration * p + tol(e.work) >= e.work;
            if (!ok) {
                why << e.label << ": " << e.work << " ops exceed " << e.duration << " x " << p
                    << " CPU core-ticks";
            }
        } else if (e.unit == PlanEvent::Unit::kGpu) {
            const double need = hw.gpu.launch_overhead + e.work / (hw.gpu.gamma * g);
            ok = e.duration + tol(need) >= need;
            if (!ok) {
                why << e.label << ": launch needs " << need << " ticks over " << g
                    << " lanes but the plan budgets " << e.duration;
            }
        }
        if (ok) {
            ++rep.checks_passed;
        } else {
            finding(rep, VerifyFinding::Kind::kCapacityExceeded, why.str());
        }

        // Wave conservation: the waves of the launch re-partition its tasks
        // exactly — no task dropped, none double-scheduled.
        if (e.tasks > 0) {
            const std::uint64_t width =
                e.unit == PlanEvent::Unit::kGpu ? hw.gpu.g : hw.cpu.p;
            const std::uint64_t waves = width > 0 ? util::ceil_div(e.tasks, width) : 0;
            std::uint64_t covered = 0;
            for (std::uint64_t w = 0; w < waves; ++w) {
                covered += std::min<std::uint64_t>(width, e.tasks - w * width);
            }
            if (covered == e.tasks) {
                ++rep.checks_passed;
            } else {
                std::ostringstream os;
                os << e.label << ": " << waves << " waves of width " << width << " cover "
                   << covered << " of " << e.tasks << " tasks";
                finding(rep, VerifyFinding::Kind::kWaveConservation, os.str());
            }
        }
    }

    // --- Per-unit serialization: one unit never runs two events at once.
    for (const PlanEvent::Unit unit :
         {PlanEvent::Unit::kCpu, PlanEvent::Unit::kGpu, PlanEvent::Unit::kLink}) {
        std::vector<const PlanEvent*> on_unit;
        for (const PlanEvent& e : plan.events) {
            if (e.unit == unit && e.duration > 0.0) on_unit.push_back(&e);
        }
        std::sort(on_unit.begin(), on_unit.end(),
                  [](const PlanEvent* a, const PlanEvent* b) { return a->start < b->start; });
        for (std::size_t i = 1; i < on_unit.size(); ++i) {
            const PlanEvent& prev = *on_unit[i - 1];
            const PlanEvent& cur = *on_unit[i];
            const double prev_end = prev.start + prev.duration;
            if (cur.start + tol(prev_end) >= prev_end) {
                ++rep.checks_passed;
            } else {
                std::ostringstream os;
                os << cur.label << " starts at " << cur.start << " while " << prev.label
                   << " still runs until " << prev_end;
                finding(rep, VerifyFinding::Kind::kCapacityExceeded, os.str());
            }
        }
    }

    // --- Transfer-before-use: when the plan ships data at all, every
    // device event's region must be covered by transfers that finished
    // before the event starts.
    std::vector<const PlanEvent*> xfers_in;
    std::vector<const PlanEvent*> xfers_out;
    for (const PlanEvent& e : plan.events) {
        if (e.kind == PlanEvent::Kind::kXferIn) xfers_in.push_back(&e);
        if (e.kind == PlanEvent::Kind::kXferOut) xfers_out.push_back(&e);
    }
    if (!xfers_in.empty()) {
        for (const PlanEvent& e : plan.events) {
            if (e.unit != PlanEvent::Unit::kGpu || !is_compute(e) || e.words == 0) continue;
            std::vector<std::pair<std::uint64_t, std::uint64_t>> arrived;
            for (const PlanEvent* x : xfers_in) {
                if (x->start + x->duration <= e.start + tol(e.start)) {
                    arrived.emplace_back(x->offset, x->offset + x->words);
                }
            }
            std::sort(arrived.begin(), arrived.end());
            std::uint64_t cursor = e.offset;
            const std::uint64_t end = e.offset + e.words;
            for (const auto& [lo, hi] : arrived) {
                if (lo > cursor) break;
                cursor = std::max(cursor, hi);
            }
            if (cursor >= end) {
                ++rep.checks_passed;
            } else {
                std::ostringstream os;
                os << e.label << " reads elements [" << e.offset << ", " << end
                   << ") at tick " << e.start << " but only [" << e.offset << ", " << cursor
                   << ") has arrived";
                finding(rep, VerifyFinding::Kind::kPrecedenceViolation, os.str());
            }
        }
    }

    // --- Readback precedence: a transfer back to the host must start
    // after every device event that touches its region has finished.
    for (const PlanEvent* x : xfers_out) {
        for (const PlanEvent& e : plan.events) {
            if (e.unit != PlanEvent::Unit::kGpu || !is_compute(e)) continue;
            if (!region_overlap(e, *x)) continue;
            const double e_end = e.start + e.duration;
            if (x->start + tol(e_end) >= e_end) {
                ++rep.checks_passed;
            } else {
                std::ostringstream os;
                os << x->label << " ships at " << x->start << " while " << e.label
                   << " still computes its region until " << e_end;
                finding(rep, VerifyFinding::Kind::kPrecedenceViolation, os.str());
            }
        }
        // ... and host work on that region must wait for the readback.
        for (const PlanEvent& e : plan.events) {
            if (e.unit != PlanEvent::Unit::kCpu || !is_compute(e)) continue;
            if (!region_overlap(e, *x)) continue;
            const double x_end = x->start + x->duration;
            if (e.start + tol(x_end) >= x_end) {
                ++rep.checks_passed;
            } else {
                std::ostringstream os;
                os << e.label << " starts at " << e.start << " before " << x->label
                   << " returns its region at " << x_end;
                finding(rep, VerifyFinding::Kind::kPrecedenceViolation, os.str());
            }
        }
    }

    // --- Pipelined chunk double-buffer safety: the chunks shipped each way
    // are pairwise disjoint in space (no word crosses the link twice in one
    // direction), and no kernel overlaps a chunk still in flight.
    for (const std::vector<const PlanEvent*>* xfers : {&xfers_in, &xfers_out}) {
        for (std::size_t i = 0; i < xfers->size(); ++i) {
            for (std::size_t k = i + 1; k < xfers->size(); ++k) {
                const PlanEvent& a = *(*xfers)[i];
                const PlanEvent& b = *(*xfers)[k];
                if (!region_overlap(a, b)) {
                    ++rep.checks_passed;
                } else {
                    std::ostringstream os;
                    os << a.label << " and " << b.label << " stream overlapping element ranges";
                    finding(rep, VerifyFinding::Kind::kChunkOverlap, os.str());
                }
            }
        }
    }
    for (const PlanEvent* x : xfers_in) {
        for (const PlanEvent& e : plan.events) {
            if (e.unit != PlanEvent::Unit::kGpu || !is_compute(e)) continue;
            if (!region_overlap(e, *x)) continue;
            if (!time_overlap(e, *x)) {
                ++rep.checks_passed;
            } else {
                std::ostringstream os;
                os << e.label << " computes over " << x->label
                   << " while the link still streams it";
                finding(rep, VerifyFinding::Kind::kChunkOverlap, os.str());
            }
        }
    }
}

void check_never_worse(double est_chosen, double est_mono, std::uint64_t chunks,
                       VerifyReport& rep) {
    if (chunks <= 1) {
        ++rep.checks_passed;  // guard degenerated the schedule; trivially safe
        return;
    }
    if (est_chosen < est_mono) {
        ++rep.checks_passed;
    } else {
        std::ostringstream os;
        os << "pipelined estimate " << est_chosen << " is not below the monolithic "
           << est_mono << " despite K=" << chunks;
        finding(rep, VerifyFinding::Kind::kNeverWorseViolated, os.str());
    }
}

}  // namespace hpu::verify
