// §7 future-work ablation: "the recursive schedule could be stopped at a
// certain level of the tree, after which parallel versions of the gpu
// kernels could be executed". Sweeps run_gpu's element-wise switch on the
// coalesced mergesort: per-task kernels climb levels L-1..switch, Fig. 9's
// element-wise merge runs the remaining levels switch-1..0. The run's span
// tree splits its device time between the two.
#include "common.hpp"

int main(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 20));
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));
    const std::uint64_t L = util::ilog2(n);

    core::ExecOptions opts = bench::exec_options(cli);
    const sim::Ticks seq =
        bench::sequential_mergesort_time(spec.params, n, opts, bench::input_seed(cli, n));

    std::cout << "Parallel-tail ablation (" << spec.name << "), mergesort, n=" << n
              << " (L=" << L << ", ceil(log2 g)=" << util::ceil_log2(spec.params.gpu.g)
              << ")\n";
    util::Table t({"switch level", "t(deep kernels)", "t(parallel tail)", "t(total)",
                   "speedup vs 1-core"},
                  3);
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::string tail_label = core::phase_label(alg.name(), core::kElementwisePhase);
    std::vector<std::int32_t> dummy(n);
    for (std::uint64_t sw : {L, std::uint64_t{16}, std::uint64_t{14}, std::uint64_t{12},
                             std::uint64_t{10}, std::uint64_t{6}, std::uint64_t{0}}) {
        if (sw > L) continue;
        sim::Hpu h(spec.params);
        trace::TraceSession session;
        core::ExecOptions o = opts;
        o.trace = &session;
        const core::ExecReport rep =
            core::run_gpu(h, alg, std::span(dummy), o, /*include_transfers=*/true, sw);
        sim::Ticks tail = 0.0;
        for (const trace::Span& s : session.spans()) {
            if (trace::canonical_label(s.label) == tail_label) tail += s.duration();
        }
        t.add_row({static_cast<std::int64_t>(sw), rep.gpu_busy - tail, tail, rep.total,
                   seq / rep.total});
    }
    bench::emit(t, cli);
    std::cout << "\n(switch=0 is the all-generic run_gpu schedule; switch=L is Fig. 9's\n"
                 " all-parallel kernel; the sweet spot sits near log2(g) where per-task\n"
                 " kernels stop saturating the device)\n";
    return 0;
}
