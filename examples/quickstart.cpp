// Quickstart: the three layers of the library in ~80 lines.
//
//   1. Write an ordinary recursive divide-and-conquer algorithm (Layer 1)
//      and run it through the generic engine — recursively (Alg. 1) or
//      breadth-first (Alg. 2), with identical results.
//   2. Express a regular array D&C as a LevelAlgorithm (Layer 2) and run it
//      on a simulated Hybrid Processing Unit with the advanced scheduler.
//   3. Ask the analytical model for the optimal work division first.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <iomanip>
#include <iostream>
#include <string>

#include "algos/dc_problems.hpp"
#include "algos/mergesort.hpp"
#include "core/generic.hpp"
#include "core/hybrid.hpp"
#include "model/advanced.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"
#include "util/rng.hpp"

int main() {
    using namespace hpu;

    // --- Layer 1: a generic D&C algorithm, two execution orders.
    std::vector<std::int64_t> values = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
    const algos::GenericSum sum;
    const auto rec = core::run_recursive(sum, algos::GenericSum::Param{values});
    const auto bf = core::run_breadth_first(sum, algos::GenericSum::Param{values});
    std::cout << "Layer 1 — generic sum: recursive=" << rec << " breadth-first=" << bf << "\n";

    // --- The machine: HPU1 from the paper (4 CPU cores; GPU with g=4096
    // lanes, each 160x slower than a CPU core).
    sim::Hpu machine(platforms::hpu1());
    const std::uint64_t n = 1 << 20;

    // --- The model: where should the split go?
    algos::MergesortCoalesced<std::int32_t> mergesort;
    model::AdvancedModel m(machine.params(), mergesort.recurrence(), static_cast<double>(n));
    const auto plan = m.optimize();
    std::cout << "Model: give the CPU alpha=" << plan.alpha << " of the array; the GPU climbs to"
              << " level y=" << plan.y << " and does " << 100 * plan.gpu_work_share
              << "% of the work (predicted speedup " << plan.speedup << "x)\n";

    // --- Layer 2: run it. Both units work in parallel; two transfers total.
    util::Rng rng(1);
    auto data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    auto baseline = data;

    sim::CpuUnit one_core(machine.params().cpu);
    const auto seq = core::run_sequential(one_core, mergesort, std::span(baseline));
    trace::TraceSession session;
    core::AdvancedOptions adv;
    adv.exec.trace = &session;
    const auto hyb = core::run_advanced_hybrid(
        machine, mergesort, std::span(data), plan.alpha,
        static_cast<std::uint64_t>(std::llround(plan.y)), adv);

    std::cout << "Simulated: 1-core " << seq.total << " ticks, hybrid " << hyb.total
              << " ticks -> speedup " << seq.total / hyb.total << "x\n";
    std::cout << "Sorted correctly: " << std::boolalpha
              << std::is_sorted(data.begin(), data.end()) << "\n\n";

    // The run's span tree: run → phase → transfer / level (waves omitted).
    std::cout << "Span tree of the hybrid run (ticks):\n";
    for (const trace::Span& s : session.spans()) {
        if (s.kind == trace::SpanKind::kWave) continue;
        int depth = 0;
        for (trace::SpanId p = s.parent; p != trace::kNoSpan; p = session.span(p).parent) ++depth;
        std::cout << std::string(2 * static_cast<std::size_t>(depth), ' ') << std::setw(8)
                  << std::left << trace::to_string(s.kind) << std::right << " [" << std::setw(12)
                  << s.start << ", " << std::setw(12) << s.end << ")  " << s.label << "\n";
    }
    return 0;
}
