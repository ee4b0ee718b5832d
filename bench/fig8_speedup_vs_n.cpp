// Figure 8: hybrid mergesort speedup as a function of input size, for HPU1
// and HPU2 — simulated ("measured", with the LLC contention model on),
// model-predicted, and the GPU/CPU parallel-phase balance ratio. The paper
// reports maxima of 4.54× (HPU1) and 4.35× (HPU2) against predictions of
// 5.47× / 5.7×, with the gap growing for cache-busting sizes.
//
// With --pipeline=K the sweep also runs the pipelined hybrid (§9) at the
// same (α*, y*) and adds a speedup column plus the chunk count the no-win
// guard settled on — the overlap win appears at transfer-bound sizes.
#include "common.hpp"

int main(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const int lg_max = static_cast<int>(cli.get_int("lgmax", 24));
    const double contention = cli.get_double("contention", 0.08);
    const std::uint64_t chunks = bench::pipeline_chunks(cli);

    for (const auto& spec : bench::selected_platforms(cli)) {
        sim::HpuParams measured_hw = spec.params;
        measured_hw.cpu.contention = contention;

        algos::MergesortCoalesced<std::int32_t> alg;
        core::AdvancedOptions adv;
        adv.exec = bench::exec_options(cli);

        std::cout << "Figure 8 (" << spec.name
                  << "): hybrid mergesort speedup vs input size\n";
        std::vector<std::string> cols{"n", "speedup (sim)", "speedup (predicted)",
                                      "gpu/cpu ratio", "alpha*", "y*"};
        if (chunks > 0) {
            cols.push_back("speedup (pipelined)");
            cols.push_back("K eff");
        }
        util::Table t(cols, 3);
        for (int lg = 10; lg <= lg_max; lg += 2) {
            const std::uint64_t n = 1ull << lg;
            model::AdvancedModel m(spec.params, alg.recurrence(), static_cast<double>(n));
            const auto opt = m.optimize();
            const auto y = std::clamp<std::uint64_t>(
                static_cast<std::uint64_t>(std::llround(opt.y)), 1, static_cast<std::uint64_t>(lg));

            sim::Hpu h(measured_hw);
            std::vector<std::int32_t> data(n);
            if (adv.exec.functional) {
                util::Rng rng(bench::input_seed(cli, n));
                data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
            }
            const sim::Ticks seq = bench::sequential_mergesort_time(measured_hw, n, adv.exec,
                                                                    bench::input_seed(cli, n));
            const auto rep =
                core::run_advanced_hybrid(h, alg, std::span(data), opt.alpha, y, adv);
            std::vector<util::Cell> row{static_cast<std::int64_t>(n), seq / rep.total,
                                               opt.speedup, rep.gpu_busy / rep.cpu_busy,
                                               opt.alpha, opt.y};
            if (chunks > 0) {
                sim::Hpu hp(measured_hw);
                std::vector<std::int32_t> pdata(n);
                if (adv.exec.functional) {
                    util::Rng rng(bench::input_seed(cli, n));
                    pdata = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
                }
                core::PipelinedOptions pip;
                pip.chunks = chunks;
                pip.exec = adv.exec;
                const auto prep = core::run_pipelined_hybrid(hp, alg, std::span(pdata),
                                                             opt.alpha, y, pip);
                row.emplace_back(seq / prep.total);
                row.emplace_back(static_cast<std::int64_t>(prep.chunks));
            }
            t.add_row(row);
        }
        bench::emit(t, cli);
        std::cout << "\n";
    }
    std::cout << "(paper: max 4.54x on HPU1 / 4.35x on HPU2 vs predicted 5.47x / 5.7x;\n"
                 " the sim-vs-predicted gap comes from the LLC contention model, enabled\n"
                 " here with --contention=" << contention << ")\n";
    return 0;
}
