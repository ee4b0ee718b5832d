// Figure 7: speedup of the advanced hybrid mergesort on HPU1 (vs the
// 1-core recursive baseline) as a function of the work ratio α, one series
// per transfer level y in {7..12}, n = 2²⁴. The paper's curves peak near
// α ≈ 0.16 with the best levels around y = 10 and a maximum of ≈ 4.5×.
//
// With --trace=<file> / --utilization, the best (α, y) of the sweep is
// re-run once with span tracing attached and exported / summarized — the
// sweep itself stays untraced so the exported trace holds one clean run.
#include "common.hpp"

int main(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const auto n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 24));
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));
    sim::HpuParams hw = spec.params;
    // The measured runs contend for the LLC at this size (§6.4's
    // explanation of the measured-vs-predicted gap).
    hw.cpu.contention = cli.get_double("contention", 0.08);

    core::AdvancedOptions adv;
    adv.exec = bench::exec_options(cli);

    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> data(n);
    util::Rng rng(bench::input_seed(cli, 7));
    if (adv.exec.functional) data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    const sim::Ticks seq =
        bench::sequential_mergesort_time(hw, n, adv.exec, bench::input_seed(cli, n));

    std::cout << "Figure 7 (" << spec.name << "): hybrid mergesort speedup vs alpha, n=" << n
              << "\n";
    std::vector<std::string> headers = {"alpha"};
    for (int y = 7; y <= 12; ++y) headers.push_back("y=" + std::to_string(y));
    util::Table t(std::move(headers), 3);
    double best_speedup = 0.0, best_alpha = 0.16;
    std::uint64_t best_y = 10;
    for (double alpha = 0.04; alpha <= 0.36; alpha += 0.04) {
        std::vector<util::Cell> row = {alpha};
        for (std::uint64_t y = 7; y <= 12; ++y) {
            sim::Hpu h(hw);
            // Functional runs need a fresh unsorted copy; the analytic path
            // never touches the data.
            std::vector<std::int32_t> copy;
            std::span<std::int32_t> d(data);
            if (adv.exec.functional) {
                copy = data;
                d = std::span(copy);
            }
            const auto rep = core::run_advanced_hybrid(h, alg, d, alpha, y, adv);
            row.emplace_back(seq / rep.total);
            if (seq / rep.total > best_speedup) {
                best_speedup = seq / rep.total;
                best_alpha = alpha;
                best_y = y;
            }
        }
        t.add_row(std::move(row));
    }
    bench::emit(t, cli);
    std::cout << "\n(paper: peak ~4.5x near alpha~0.16, best transfer levels 9-11)\n";

    bench::TraceSink sink(cli);
    if (sink.active()) {
        sim::Hpu h(hw);
        core::AdvancedOptions traced = adv;
        traced.exec.trace = sink.session();
        std::vector<std::int32_t> copy;
        std::span<std::int32_t> d(data);
        if (adv.exec.functional) {
            copy = data;
            d = std::span(copy);
        }
        core::run_advanced_hybrid(h, alg, d, best_alpha, best_y, traced);
        std::cout << "\ntraced run: alpha=" << best_alpha << " y=" << best_y
                  << " speedup=" << best_speedup << "\n";
        sink.finish(hw, alg.recurrence(), alg.device_ops_multiplier(hw.gpu));
    }
    return 0;
}
