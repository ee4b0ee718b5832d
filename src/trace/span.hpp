// Hierarchical span tracer of hpu::trace — the one event log of a run,
// answering "where did the time go" questions.
//
// A TraceSession holds a tree of spans on the virtual clock:
//
//   run ─┬─ phase (cpu-parallel / gpu-phase / finish / ...)
//        │     └─ level / leaves / hook / transfer
//        │            └─ wave (one SIMT wave of a kernel launch)
//        └─ ...
//
// Spans carry structured attributes (unit, global level index, task count,
// work-items, waves, priced ops, bytes moved, transaction counts) from
// which the utilization / model-drift report (utilization.hpp) and the
// exporters (export.hpp) are derived.
//
// Discipline (same as hpu::analysis): recording is strictly off the
// virtual-clock critical path. Executors compute their tick arithmetic
// first and hand *finished* numbers to the tracer; attaching or detaching a
// session can never change an ExecReport tick (enforced by test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/params.hpp"

namespace hpu::trace {

enum class SpanKind : std::uint8_t {
    kRun,       ///< one executor invocation (a root span)
    kPhase,     ///< a scheduler phase (cpu-parallel, gpu-phase, finish, ...)
    kLevel,     ///< one recursion-tree level executed on one unit
    kLeaves,    ///< a leaf sweep at the bottom of (a slice of) the tree
    kWave,      ///< one SIMT wave of a device kernel launch
    kTransfer,  ///< one CPU<->GPU link transfer
    kHook,      ///< a device-side hook (layout permutation, ping-pong flip)
};

/// Which part of the HPU a span occupied.
enum class Unit : std::uint8_t {
    kHost,  ///< whole-machine / bookkeeping (run roots, host pre-passes)
    kCpu,   ///< the p-core CPU unit
    kGpu,   ///< the device
    kLink,  ///< the CPU<->GPU link
};

const char* to_string(SpanKind k) noexcept;
const char* to_string(Unit u) noexcept;

/// Structured span attributes. Zero-initialized fields mean "not set";
/// `level` uses kNoLevel as its sentinel because level 0 (the root) is a
/// meaningful index.
struct SpanAttrs {
    static constexpr std::uint64_t kNoLevel = ~std::uint64_t{0};

    std::uint64_t level = kNoLevel;  ///< global recursion-tree level (kLevel)
    std::uint64_t tasks = 0;         ///< tasks of a level / leaves of a sweep
    std::uint64_t items = 0;         ///< work-items (launches/waves), words (transfers)
    std::uint64_t waves = 0;         ///< SIMT waves of a launch
    double ops = 0.0;                ///< unit-priced ops charged in this span
    /// Largest single-item (GPU) / single-task (CPU) unit-priced op count in
    /// this span. On a wave span, duration == max_ops / gamma exactly, which
    /// is what lets obs::estimate re-fit gamma from non-uniform kernels
    /// without bias (mean ops/items would under-estimate it).
    double max_ops = 0.0;
    double work = 0.0;               ///< CPU-normalized ops (the paper's work units)
    std::uint64_t bytes = 0;         ///< payload bytes (transfers)
    std::uint64_t coalesced_transactions = 0;  ///< memory transactions, coalesced
    std::uint64_t strided_transactions = 0;    ///< memory transactions, strided
    /// Irregular-tree shape of a dynamic level (core/irregular.hpp): words
    /// covered by the level part's task extents, and the level's extent
    /// skew (max/mean non-empty task extent; 1.0 = regular, 0 = not set).
    /// Regular executors never set these — utilization and obs reports use
    /// them to explain uneven trees.
    std::uint64_t extent_words = 0;
    double imbalance = 0.0;
};

/// 1-based handle into TraceSession::spans(); 0 = "no span".
using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    SpanKind kind = SpanKind::kRun;
    Unit unit = Unit::kHost;
    std::string label;
    sim::Ticks start = 0.0;
    sim::Ticks end = 0.0;
    SpanAttrs attrs;
    /// Wall-clock attribution (ExecOptions::profile; see metrics/profile.hpp).
    /// Raw util::now_ns() values — only differences are meaningful; 0 means
    /// "not profiled". Strictly observational: the virtual fields above are
    /// byte-identical whether profiling is on or off (enforced by test).
    std::uint64_t wall_start_ns = 0;
    std::uint64_t wall_ns = 0;

    sim::Ticks duration() const noexcept { return end - start; }
};

/// One trace: an append-only span tree. Sessions are reusable across
/// several executor runs (each run adds its own root span); they are not
/// thread-safe — one session per driving thread.
class TraceSession {
public:
    /// Records a completed span of `duration` starting at `start`.
    SpanId record(SpanKind kind, Unit unit, std::string label, sim::Ticks start,
                  sim::Ticks duration, SpanAttrs attrs = {}, SpanId parent = kNoSpan);

    /// Extends an already recorded span (used for run/phase roots whose end
    /// is only known after their children).
    void close(SpanId id, sim::Ticks end);

    /// Merges additional attributes into a recorded span (non-zero /
    /// non-sentinel fields win).
    void annotate(SpanId id, const SpanAttrs& attrs);

    /// Attaches wall-clock attribution to a recorded span (profiling only;
    /// never touches the virtual start/end fields).
    void annotate_wall(SpanId id, std::uint64_t wall_start_ns, std::uint64_t wall_ns);

    const std::vector<Span>& spans() const noexcept { return spans_; }
    const Span& span(SpanId id) const { return spans_.at(id - 1); }
    bool empty() const noexcept { return spans_.empty(); }

    std::size_t count(SpanKind kind) const noexcept;
    /// Sum of durations of all spans of `kind` (children double-count their
    /// parents by design — filter by kind).
    sim::Ticks total(SpanKind kind) const noexcept;
    /// Latest span end (0 when empty).
    sim::Ticks span_end() const noexcept;

    /// Direct children of `id` (kNoSpan = the roots), in recording order.
    std::vector<SpanId> children(SpanId id) const;

    void clear() noexcept { spans_.clear(); }

private:
    std::vector<Span> spans_;
};

/// Work spans occupy a unit for their duration: levels, leaf sweeps, hooks
/// and transfers. Run and phase spans group them; a wave span repeats part
/// of its level span on the same clock.
inline bool is_work(const Span& s) noexcept {
    return s.kind == SpanKind::kLevel || s.kind == SpanKind::kLeaves ||
           s.kind == SpanKind::kHook || s.kind == SpanKind::kTransfer;
}

/// `label` without its per-instance bracket suffix ("xfer-in-chunk[3]" ->
/// "xfer-in-chunk"), so a span keeps matching its counterpart in another
/// run when only a task count or chunk index changed.
std::string canonical_label(const std::string& label);

/// Direct children of every span of `session`, one list per parent id
/// (index 0 = the roots), in recording order.
std::vector<std::vector<SpanId>> child_index(const TraceSession& session);

}  // namespace hpu::trace
