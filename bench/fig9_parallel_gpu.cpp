// Figure 9: GPU-only mergesort with a parallel (binary-search) merge vs the
// 1-core recursive baseline on HPU1 — times and speedups as a function of
// input size, with and without transfer overhead. The paper reaches 18–20×
// (sort only) and ~12× (with transfers) at large n. The sort is run_gpu
// with every level element-wise (switch L = log2 n): one work-item per
// element finds its place in the merged run by binary search.
//
// Modeling note (see EXPERIMENTS.md): a latency-bound binary-search kernel
// overlaps far more than g lanes of work on real hardware via SMT
// occupancy; the paper's own wave model does not capture that, so we expose
// it as an explicit --occupancy multiplier on g (default 4).
#include "common.hpp"

int main(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const int lg_max = static_cast<int>(cli.get_int("lgmax", 24));
    const double occupancy = cli.get_double("occupancy", 4.0);
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));

    sim::HpuParams hw = spec.params;
    hw.gpu.g = static_cast<std::uint64_t>(static_cast<double>(hw.gpu.g) * occupancy);
    // Real kernel launches cost tens of microseconds; that fixed cost is
    // what keeps small inputs slow in the paper's Fig. 9 (one launch per
    // level, L = log2 n launches total).
    hw.gpu.launch_overhead = cli.get_double("launch-overhead", 10000.0);

    core::ExecOptions opts = bench::exec_options(cli);

    std::cout << "Figure 9 (" << spec.name << "): parallel-merge GPU mergesort, occupancy x"
              << occupancy << "\n";
    util::Table t({"n", "t(gpu sort)", "t(sort+xfer)", "t(cpu 1-core)", "speedup sort",
                   "speedup sort+xfer"},
                  3);
    algos::MergesortPlain<std::int32_t> alg;
    for (int lg = 10; lg <= lg_max; lg += 2) {
        const std::uint64_t n = 1ull << lg;
        sim::Hpu h(hw);
        std::vector<std::int32_t> data(n);
        if (opts.functional) {
            util::Rng rng(bench::input_seed(cli, n));
            data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
        }
        const core::ExecReport rep = core::run_gpu(h, alg, std::span(data), opts,
                                                   /*include_transfers=*/true,
                                                   static_cast<std::uint64_t>(lg));
        const sim::Ticks seq =
            bench::sequential_mergesort_time(spec.params, n, opts, bench::input_seed(cli, n));
        t.add_row({static_cast<std::int64_t>(n), rep.gpu_busy, rep.total, seq,
                   seq / rep.gpu_busy, seq / rep.total});
    }
    bench::emit(t, cli);
    std::cout << "\n(paper: 18-20x sort-only, ~12x with transfers at large n;\n"
                 " speedups only clearly beat the hybrid's ~4.5x for large inputs)\n";
    return 0;
}
