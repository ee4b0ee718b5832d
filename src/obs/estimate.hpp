// Online parameter estimation of hpu::obs (DESIGN.md §13): least-squares
// re-fits of the machine parameters (g, γ, λ, δ) from the span telemetry of
// completed runs, compared against the configured sim::HpuParams. This is
// the observational half of the ROADMAP's "online re-estimation" item: the
// estimator reports drift, it does not re-solve the schedule mid-flight.
//
// What each parameter is fitted from:
//
//   g  — wave spans: a wave holds at most g busy lanes, and any level with
//        more than g tasks produces a full wave, so the largest wave item
//        count observed IS g (exact once the device saturated). Without
//        wave spans (analytic runs), level spans give ceil(items/waves),
//        a lower bound that is tight when items divide evenly.
//   γ  — wave spans: a wave's duration is max_item_ops / γ by definition,
//        so γ is the through-origin least-squares slope of max_ops against
//        duration. Without wave spans, level spans fit
//        t = launch_overhead + waves·max_ops/γ with a free intercept.
//   λ,δ — transfer spans: t = λ + δ·words, ordinary least squares over the
//        observed (words, duration) pairs. Needs two distinct transfer
//        sizes to separate the intercept from the slope; with only one,
//        the residual is attributed to λ and both are flagged
//        non-identifiable.
//
// The file also hosts the shared span primitives (price_span,
// model_item_ops, drift_ratio) that trace/utilization.cpp prices its drift
// column with and obs/whatif.cpp re-prices a run with. They are header-only
// inline functions so the lower-layer libraries can use them without
// linking hpu_obs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/labels.hpp"
#include "model/recurrence.hpp"
#include "sim/params.hpp"
#include "trace/span.hpp"
#include "util/math.hpp"

namespace hpu::obs {

// ---------------------------------------------------------------------------
// Shared span primitives.

/// Price of one recorded work span on `hw` through the unit prices: a
/// level or leaf sweep of `item_ops`-op tasks, a hook of its recorded ops,
/// a transfer of its recorded words. Cache contention is not priced.
inline sim::Ticks price_span(const trace::Span& s, const sim::HpuParams& hw, double item_ops) {
    const bool gpu = s.unit == trace::Unit::kGpu;
    switch (s.kind) {
        case trace::SpanKind::kLevel:
        case trace::SpanKind::kLeaves:
            if (s.attrs.tasks == 0) return 0.0;
            if (gpu) {
                return hw.gpu.launch_time(
                    static_cast<double>(util::ceil_div(s.attrs.tasks, hw.gpu.g)), item_ops);
            }
            return hw.cpu.level_time(
                static_cast<double>(util::ceil_div(s.attrs.tasks, hw.cpu.p)), item_ops);
        case trace::SpanKind::kHook:
            return gpu ? hw.gpu.hook_time(s.attrs.ops) : hw.cpu.host_pass_time(s.attrs.ops);
        case trace::SpanKind::kTransfer:
            return hw.link.transfer_time(s.attrs.items);
        default:
            return 0.0;
    }
}

/// The pure §5 model's per-task ops of a level/leaves span (no contention,
/// no imbalance — that is exactly what drift exposes). `n` is the run's
/// input size, `rec`/`dev_mult` the algorithm's recurrence and device op
/// multiplier, which leaf sweeps (plain compute) do not pay. An
/// element-wise level (DESIGN.md §3.1) charges its closed-form item price,
/// recorded as the span's max_ops.
inline double model_item_ops(const trace::Span& s, double n, const model::Recurrence& rec,
                             double dev_mult) {
    if (s.kind == trace::SpanKind::kLeaves) return rec.leaf_cost;
    if (core::is_launch_of(s.label, core::kElementwisePhase)) return s.attrs.max_ops;
    const double cost = rec.task_cost(n, static_cast<double>(s.attrs.level));
    return s.unit == trace::Unit::kGpu ? cost * dev_mult : cost;
}

/// Observed / predicted (or wall / virtual): the one drift ratio every
/// report shares. 0 when the predicted side charged nothing.
inline double drift_ratio(double observed, double predicted) {
    return predicted > 0.0 ? observed / predicted : 0.0;
}

// ---------------------------------------------------------------------------
// Parameter re-estimation.

/// One machine parameter, configured vs re-fitted.
struct ParamEstimate {
    std::string name;           ///< "g", "gamma", "lambda", "delta"
    double configured = 0.0;
    double estimated = 0.0;
    /// estimated / configured (1 = calibrated). 0 when not identifiable.
    double drift = 0.0;
    /// The telemetry pinned this parameter down (enough samples, and — for
    /// λ/δ — transfers of at least two distinct sizes). Non-identifiable
    /// estimates echo the configured value and never fire watchdog findings.
    bool identifiable = false;
    std::size_t samples = 0;    ///< spans the fit consumed
};

/// The full (g, γ, λ, δ) re-fit of one span population.
struct ParamFit {
    ParamEstimate g;
    ParamEstimate gamma;
    ParamEstimate lambda;
    ParamEstimate delta;

    /// Largest |drift − 1| over the identifiable parameters (0 when none).
    double worst_drift() const noexcept;

    /// Aligned parameter table (configured, estimated, drift, samples).
    void print(std::ostream& os) const;
};

/// Re-fits (g, γ, λ, δ) from the spans of `session`, scoped to the subtree
/// under `root` (kNoSpan = the whole session — pass several runs at
/// different sizes for the transfer sizes λ/δ need). `configured` supplies
/// the values drift is measured against and the fallbacks for
/// non-identifiable parameters.
ParamFit estimate_params(const trace::TraceSession& session,
                         const sim::HpuParams& configured,
                         trace::SpanId root = trace::kNoSpan);

}  // namespace hpu::obs
