// The paper's case study end to end: sort an array with every strategy the
// framework offers and compare — sequential, multicore, GPU-only (both
// merge kernels), basic hybrid, advanced hybrid, and the fully parallel
// GPU mergesort.
//
// Flags: --n=<pow2> --platform=HPU1|HPU2 --alpha=<float> --y=<level>
//        (alpha/y default to the model's optimum)
#include <iostream>

#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "model/advanced.hpp"
#include "platforms/platforms.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const auto n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 18));
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));

    algos::MergesortPlain<std::int32_t> plain;
    algos::MergesortCoalesced<std::int32_t> coal;
    model::AdvancedModel m(spec.params, coal.recurrence(), static_cast<double>(n));
    const auto opt = m.optimize();
    const double alpha = cli.get_double("alpha", opt.alpha);
    const auto y = static_cast<std::uint64_t>(
        cli.get_int("y", std::llround(opt.y)));

    util::Rng rng(42);
    const auto base = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    auto expect = base;
    std::sort(expect.begin(), expect.end());

    std::cout << "Hybrid mergesort on " << spec.name << ", n=" << n << ", alpha=" << alpha
              << ", y=" << y << "\n\n";
    util::Table t({"strategy", "ticks", "speedup", "sorted"}, 3);
    sim::Ticks seq_time = 0;
    auto run = [&](const std::string& name, auto&& fn) {
        auto d = base;
        sim::Hpu h(spec.params);
        const sim::Ticks ticks = fn(h, std::span<std::int32_t>(d));
        if (name == "sequential (1 core)") seq_time = ticks;
        t.add_row({name, ticks, seq_time / ticks,
                   std::string(d == expect ? "yes" : "NO")});
    };
    run("sequential (1 core)", [&](sim::Hpu& h, std::span<std::int32_t> d) {
        return core::run_sequential(h.cpu(), plain, d).total;
    });
    run("multicore (4 cores)", [&](sim::Hpu& h, std::span<std::int32_t> d) {
        return core::run_multicore(h.cpu(), coal, d).total;
    });
    run("gpu only, strided merge", [&](sim::Hpu& h, std::span<std::int32_t> d) {
        return core::run_gpu(h, plain, d).total;
    });
    run("gpu only, coalesced merge", [&](sim::Hpu& h, std::span<std::int32_t> d) {
        return core::run_gpu(h, coal, d).total;
    });
    run("basic hybrid (Sec. 5.1)", [&](sim::Hpu& h, std::span<std::int32_t> d) {
        return core::run_basic_hybrid(h, coal, d).total;
    });
    run("advanced hybrid (Sec. 5.2)", [&](sim::Hpu& h, std::span<std::int32_t> d) {
        return core::run_advanced_hybrid(h, coal, d, alpha, y).total;
    });
    run("gpu parallel merge (Fig. 9)", [&](sim::Hpu& h, std::span<std::int32_t> d) {
        // Every level element-wise: one work-item per element.
        return core::run_gpu(h, plain, d, {}, true, util::ilog2(n)).total;
    });
    t.print(std::cout);
    std::cout << "\nModel prediction for the advanced hybrid: " << opt.speedup << "x\n";
    return 0;
}
