// Property-based parity harness: seeded random D&C instances (algorithm,
// input size, platform, scheduler knobs) run through every executor in
// both functional and analytic mode. Two properties must hold for every
// instance:
//  * bit-identical outputs — every functional executor produces exactly
//    the sequential run's array (and the ground truth: sorted order for
//    the mergesorts, the fold value for the reductions);
//  * conserved total work — summing the task counts of the recorded
//    level/leaves spans across all units reconstructs the full tree:
//    2^i tasks at level i and n / base leaf blocks, however the schedule
//    split the array.
// Failures print the reproducing case seed via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/closest_pair.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/mergesort_blocked.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"

namespace hpu::core {
namespace {

/// One randomized instance: what to run and what the truth is.
struct Instance {
    std::uint64_t seed = 0;
    std::unique_ptr<LevelAlgorithm<std::int32_t>> alg;
    bool sorts = false;
    int reduce = -1;  ///< 0 = sum, 1 = max, 2 = min (when not a sort)
    std::uint64_t base = 1;
    std::uint64_t n = 0;
    std::uint64_t levels = 0;
    sim::HpuParams hw;
    double alpha = 0.5;
    std::uint64_t y = 1;
    std::uint64_t chunks = 1;
    std::vector<std::int32_t> input;
};

Instance make_instance(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
        return lo + rng() % (hi - lo + 1);
    };
    auto real = [&](double lo, double hi) {
        return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
    };

    Instance in;
    in.seed = seed;
    in.hw = platforms::hpu1();
    in.hw.name = "random";
    in.hw.cpu.p = pick(1, 8);
    in.hw.cpu.contention = 0.0;
    in.hw.gpu.g = 1ull << pick(4, 12);
    in.hw.gpu.gamma = real(0.005, 0.05);
    in.hw.link.lambda = real(0.0, 2000.0);
    in.hw.link.delta = real(0.25, 4.0);

    switch (pick(0, 5)) {
        case 0:
            in.alg = std::make_unique<algos::MergesortPlain<std::int32_t>>();
            in.sorts = true;
            break;
        case 1:
            in.alg = std::make_unique<algos::MergesortCoalesced<std::int32_t>>();
            in.sorts = true;
            break;
        case 2:
            in.base = 1ull << pick(1, 3);
            in.alg = std::make_unique<algos::MergesortBlocked<std::int32_t>>(in.base);
            in.sorts = true;
            break;
        case 3:
            in.alg = std::make_unique<algos::DcSum<std::int32_t>>(
                algos::make_sum<std::int32_t>());
            in.reduce = 0;
            break;
        case 4:
            in.alg = std::make_unique<algos::DcMax<std::int32_t>>(
                algos::make_max<std::int32_t>());
            in.reduce = 1;
            break;
        default:
            in.alg = std::make_unique<algos::DcMin<std::int32_t>>(
                algos::make_min<std::int32_t>());
            in.reduce = 2;
            break;
    }

    in.levels = pick(7, 10);
    in.n = in.base << in.levels;
    in.alpha = real(0.1, 0.9);
    in.y = pick(1, in.levels);
    in.chunks = pick(1, 8);
    in.input.resize(in.n);
    for (auto& v : in.input) v = static_cast<std::int32_t>(pick(0, 1000));
    return in;
}

/// Sums the level/leaves task counts of a recorded session and checks
/// they reconstruct the full tree, however the run was scheduled.
void check_conservation(const Instance& in, const trace::TraceSession& ts) {
    std::map<std::uint64_t, std::uint64_t> level_tasks;
    std::uint64_t leaf_tasks = 0;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind == trace::SpanKind::kLevel) {
            level_tasks[s.attrs.level] += s.attrs.tasks;
        } else if (s.kind == trace::SpanKind::kLeaves) {
            leaf_tasks += s.attrs.tasks;
        }
    }
    EXPECT_EQ(level_tasks.size(), in.levels) << "levels touched";
    for (const auto& [lvl, tasks] : level_tasks) {
        ASSERT_LT(lvl, in.levels);
        EXPECT_EQ(tasks, 1ull << lvl) << "tasks at level " << lvl;
    }
    EXPECT_EQ(leaf_tasks, in.n / in.base) << "leaf blocks";
}

/// Checks one executor's report, trace, and (functional) output against
/// the sequential reference.
void check_run(const Instance& in, const ExecReport& rep, const trace::TraceSession& ts,
               const std::vector<std::int32_t>& out, bool functional,
               const std::vector<std::int32_t>* reference) {
    EXPECT_TRUE(std::isfinite(rep.total));
    EXPECT_GT(rep.total, 0.0);
    check_conservation(in, ts);
    if (!functional) return;
    if (reference != nullptr) {
        EXPECT_EQ(out, *reference) << "output differs from the sequential run";
    }
    if (in.sorts) {
        EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    } else {
        std::int64_t acc = in.reduce == 0 ? 0
                                          : static_cast<std::int64_t>(in.input[0]);
        for (std::size_t i = in.reduce == 0 ? 0 : 1; i < in.input.size(); ++i) {
            const auto v = static_cast<std::int64_t>(in.input[i]);
            if (in.reduce == 0) acc += v;
            if (in.reduce == 1) acc = std::max(acc, v);
            if (in.reduce == 2) acc = std::min(acc, v);
        }
        EXPECT_EQ(static_cast<std::int64_t>(out[0]), acc) << "fold value";
    }
}

TEST(PropertyHarness, RandomInstancesAgreeAcrossExecutorsAndModes) {
    constexpr int kCases = 200;
    std::mt19937_64 master(0x5eed2026'08'05ull);
    for (int c = 0; c < kCases; ++c) {
        const Instance in = make_instance(master());
        SCOPED_TRACE(::testing::Message()
                     << "case " << c << " seed=" << in.seed << " alg=" << in.alg->name()
                     << " n=" << in.n << " p=" << in.hw.cpu.p << " g=" << in.hw.gpu.g
                     << " alpha=" << in.alpha << " y=" << in.y << " K=" << in.chunks);

        for (const bool functional : {true, false}) {
            ExecOptions opts;
            opts.functional = functional;
            AdvancedOptions adv;
            adv.exec = opts;
            PipelinedOptions pip;
            pip.chunks = in.chunks;
            pip.exec = opts;

            // Sequential run: the bit-exact reference for every other
            // executor in this mode.
            sim::Hpu h(in.hw);
            std::vector<std::int32_t> ref = in.input;
            {
                trace::TraceSession ts;
                ExecOptions o = opts;
                o.trace = &ts;
                const auto rep = run_sequential(h.cpu(), *in.alg, std::span(ref), o);
                check_run(in, rep, ts, ref, functional, nullptr);
            }
            auto against_ref = [&](auto&& run) {
                std::vector<std::int32_t> data = in.input;
                trace::TraceSession ts;
                ExecOptions o = opts;
                o.trace = &ts;
                const ExecReport rep = run(std::span(data), o);
                check_run(in, rep, ts, data, functional, &ref);
                return rep;
            };

            against_ref([&](std::span<std::int32_t> d, const ExecOptions& o) {
                return run_multicore(h.cpu(), *in.alg, d, o);
            });
            against_ref([&](std::span<std::int32_t> d, const ExecOptions& o) {
                return run_gpu(h, *in.alg, d, o);
            });
            against_ref([&](std::span<std::int32_t> d, const ExecOptions& o) {
                return run_basic_hybrid(h, *in.alg, d, o);
            });
            against_ref([&](std::span<std::int32_t> d, const ExecOptions& o) {
                AdvancedOptions a = adv;
                a.exec = o;
                return run_advanced_hybrid(h, *in.alg, d, in.alpha, in.y, a);
            });
            const ExecReport prep =
                against_ref([&](std::span<std::int32_t> d, const ExecOptions& o) {
                    PipelinedOptions p = pip;
                    p.exec = o;
                    return run_pipelined_hybrid(h, *in.alg, d, in.alpha, in.y, p);
                });
            EXPECT_GE(prep.chunks, 1u);
            EXPECT_LE(prep.chunks, in.chunks);
        }
    }
}

// ---------------------------------------------------------------------------
// Irregular trees: the same two properties over dynamic task lists.
// Instances are quickhull / closest-pair / Karatsuba at sizes no regular
// executor accepts (primes, odd halves); conservation is span-derived —
// summing the `tasks` attribute of the kLevel spans under the expand phase
// must reconstruct ExecReport::tasks_spawned, empty branches included. A
// third property holds on every instance: the advanced (and so the
// pipelined) hybrid is never slower than multicore.

/// One randomized irregular instance over element type T.
template <typename T>
struct IrregularInstance {
    std::uint64_t seed = 0;
    std::unique_ptr<IrregularLevelAlgorithm<T>> alg;
    std::vector<T> input;
    sim::HpuParams hw;
    std::uint64_t chunks = 1;
    /// Ground truth beyond bit-exactness, checked on the sequential output.
    std::function<void(const std::vector<T>&, const std::vector<T>&)> truth;
};

/// Sums kLevel span task counts under the expand phase(s).
std::uint64_t expand_level_tasks(const trace::TraceSession& ts) {
    std::vector<trace::SpanId> phases;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind == trace::SpanKind::kPhase && s.label.size() >= 7 &&
            s.label.compare(s.label.size() - 7, 7, "/expand") == 0) {
            phases.push_back(s.id);
        }
    }
    std::uint64_t tasks = 0;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind != trace::SpanKind::kLevel) continue;
        for (const trace::SpanId p : phases) {
            if (s.parent == p) {
                tasks += s.attrs.tasks;
                break;
            }
        }
    }
    return tasks;
}

/// Runs one irregular instance through all six executors in one mode and
/// checks bit-exact outputs plus span-derived task conservation.
template <typename T>
void run_irregular_instance(const IrregularInstance<T>& in, bool functional) {
    ExecOptions opts;
    opts.functional = functional;
    sim::Hpu h(in.hw);

    std::vector<T> ref = in.input;
    std::uint64_t ref_spawned = 0;
    {
        trace::TraceSession ts;
        ExecOptions o = opts;
        o.trace = &ts;
        const ExecReport rep = run_sequential(h.cpu(), *in.alg, std::span(ref), o);
        EXPECT_TRUE(std::isfinite(rep.total));
        EXPECT_GT(rep.total, 0.0);
        EXPECT_GT(rep.tasks_spawned, 0u);
        EXPECT_EQ(expand_level_tasks(ts), rep.tasks_spawned) << "sequential conservation";
        ref_spawned = rep.tasks_spawned;
        if (functional && in.truth) in.truth(in.input, ref);
    }

    auto against_ref = [&](const char* label, auto&& run) {
        std::vector<T> data = in.input;
        trace::TraceSession ts;
        ExecOptions o = opts;
        o.trace = &ts;
        const ExecReport rep = run(std::span(data), o);
        EXPECT_TRUE(std::isfinite(rep.total)) << label;
        EXPECT_GT(rep.total, 0.0) << label;
        if (functional) {
            EXPECT_EQ(data, ref) << label << ": output differs from the sequential run";
        }
        EXPECT_EQ(rep.tasks_spawned, ref_spawned) << label << ": tree shape diverged";
        EXPECT_EQ(expand_level_tasks(ts), rep.tasks_spawned) << label << ": conservation";
        return rep;
    };

    const ExecReport rm = against_ref("multicore", [&](std::span<T> d, const ExecOptions& o) {
        return run_multicore(h.cpu(), *in.alg, d, o);
    });
    against_ref("gpu", [&](std::span<T> d, const ExecOptions& o) {
        return run_gpu(h, *in.alg, d, o);
    });
    against_ref("basic-hybrid", [&](std::span<T> d, const ExecOptions& o) {
        return run_basic_hybrid(h, *in.alg, d, o);
    });
    const ExecReport ra =
        against_ref("advanced-hybrid", [&](std::span<T> d, const ExecOptions& o) {
            AdvancedOptions a;
            a.exec = o;
            return run_advanced_hybrid(h, *in.alg, d, 0.5, 1, a);
        });
    EXPECT_GE(ra.alpha_effective, 0.0);
    EXPECT_LE(ra.alpha_effective, 1.0);
    // Each split level is priced exactly and may stay all on the CPU, so
    // the advanced hybrid never loses to multicore (DESIGN.md §14).
    EXPECT_LE(ra.total, rm.total) << "advanced lost to multicore";
    const ExecReport rp =
        against_ref("pipelined-hybrid", [&](std::span<T> d, const ExecOptions& o) {
            PipelinedOptions p;
            p.chunks = in.chunks;
            p.exec = o;
            return run_pipelined_hybrid(h, *in.alg, d, 0.5, 1, p);
        });
    // A dynamic tree's pipelined run is the advanced per-level schedule.
    EXPECT_EQ(rp.chunks, 1u);
    EXPECT_EQ(rp.total, ra.total) << "pipelined vs advanced";
    EXPECT_EQ(rp.cpu_busy, ra.cpu_busy) << "pipelined vs advanced";
    EXPECT_EQ(rp.gpu_busy, ra.gpu_busy) << "pipelined vs advanced";
    EXPECT_EQ(rp.transfer, ra.transfer) << "pipelined vs advanced";
    EXPECT_EQ(rp.levels_cpu, ra.levels_cpu) << "pipelined vs advanced";
    EXPECT_EQ(rp.levels_gpu, ra.levels_gpu) << "pipelined vs advanced";
    EXPECT_EQ(rp.alpha_effective, ra.alpha_effective) << "pipelined vs advanced";
}

sim::HpuParams random_irregular_hw(std::mt19937_64& rng) {
    auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
        return lo + rng() % (hi - lo + 1);
    };
    auto real = [&](double lo, double hi) {
        return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
    };
    sim::HpuParams hw = platforms::hpu1();
    hw.name = "random-irregular";
    hw.cpu.p = pick(1, 8);
    hw.cpu.contention = 0.0;
    hw.gpu.g = 1ull << pick(4, 10);
    hw.gpu.gamma = real(0.01, 0.2);
    hw.link.lambda = real(0.0, 500.0);
    hw.link.delta = real(0.01, 1.0);
    return hw;
}

TEST(PropertyHarness, IrregularInstancesAgreeAcrossExecutorsAndModes) {
    constexpr int kCases = 200;
    std::mt19937_64 master(0xd1ceca5e202608ull);
    for (int c = 0; c < kCases; ++c) {
        const std::uint64_t seed = master();
        std::mt19937_64 rng(seed);
        auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
            return lo + rng() % (hi - lo + 1);
        };
        const int kind = static_cast<int>(pick(0, 2));
        const std::uint64_t chunks = pick(1, 6);

        if (kind == 2) {
            IrregularInstance<std::int64_t> in;
            in.seed = seed;
            in.hw = random_irregular_hw(rng);
            in.chunks = chunks;
            in.alg = std::make_unique<algos::KaratsubaArray>();
            const std::uint64_t half = pick(2, 200);
            in.input.resize(2 * half);
            for (auto& v : in.input) {
                v = static_cast<std::int64_t>(pick(0, 200)) - 100;
            }
            in.truth = [half](const std::vector<std::int64_t>& input,
                              const std::vector<std::int64_t>& out) {
                std::vector<std::int64_t> want(2 * half, 0);
                for (std::uint64_t i = 0; i < half; ++i) {
                    for (std::uint64_t j = 0; j < half; ++j) {
                        want[i + j] += input[i] * input[half + j];
                    }
                }
                EXPECT_EQ(out, want) << "karatsuba product";
            };
            SCOPED_TRACE(::testing::Message() << "case " << c << " seed=" << seed
                                              << " alg=karatsuba half=" << half
                                              << " p=" << in.hw.cpu.p << " K=" << chunks);
            run_irregular_instance(in, /*functional=*/true);
            run_irregular_instance(in, /*functional=*/false);
            continue;
        }

        IrregularInstance<algos::Pt> in;
        in.seed = seed;
        in.hw = random_irregular_hw(rng);
        in.chunks = chunks;
        const std::uint64_t n = pick(2, 400);
        in.input.resize(n);
        for (auto& p : in.input) {
            p.x = static_cast<std::int64_t>(pick(0, 2000));
            p.y = static_cast<std::int64_t>(pick(0, 2000));
        }
        if (kind == 0) {
            auto qh = std::make_unique<algos::Quickhull>();
            const algos::Quickhull* qh_ptr = qh.get();
            in.alg = std::move(qh);
            in.truth = [qh_ptr](const std::vector<algos::Pt>& input,
                                const std::vector<algos::Pt>& out) {
                // Exactly the strict hull vertices (monotone chain) appear at
                // the front of the output, which finalize sorts and dedups.
                std::vector<algos::Pt> s = input;
                std::sort(s.begin(), s.end());
                s.erase(std::unique(s.begin(), s.end()), s.end());
                std::vector<algos::Pt> hull;
                if (s.size() < 2) {
                    hull = s;
                } else {
                    auto build = [&](auto begin, auto end) {
                        std::vector<algos::Pt> chain;
                        for (auto it = begin; it != end; ++it) {
                            while (chain.size() >= 2 &&
                                   algos::cross(chain[chain.size() - 2], chain.back(),
                                                *it) >= 0) {
                                chain.pop_back();
                            }
                            chain.push_back(*it);
                        }
                        return chain;
                    };
                    hull = build(s.begin(), s.end());
                    const auto upper = build(s.rbegin(), s.rend());
                    hull.insert(hull.end(), upper.begin() + 1, upper.end() - 1);
                }
                std::sort(hull.begin(), hull.end());
                hull.erase(std::unique(hull.begin(), hull.end()), hull.end());
                // The output hull sits sorted at the front of the array;
                // hull_count() reflects the run truth is checking (it is
                // called right after the sequential reference run).
                const std::uint64_t hc = qh_ptr->hull_count();
                ASSERT_LE(hc, out.size());
                ASSERT_EQ(hc, hull.size()) << "marks differ from the strict hull vertices";
                const auto front = out.begin() + static_cast<std::ptrdiff_t>(hc);
                for (const algos::Pt& v : hull) {
                    EXPECT_TRUE(std::binary_search(out.begin(), front, v))
                        << "hull vertex (" << v.x << "," << v.y
                        << ") missing from quickhull output";
                }
            };
        } else {
            in.alg = std::make_unique<algos::ClosestPair>();
            in.truth = [](const std::vector<algos::Pt>& input,
                          const std::vector<algos::Pt>& out) {
                std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
                for (std::uint64_t i = 0; i < input.size(); ++i) {
                    for (std::uint64_t j = i + 1; j < input.size(); ++j) {
                        best = std::min(best, algos::dist2(input[i], input[j]));
                    }
                }
                EXPECT_EQ(static_cast<std::uint64_t>(out[0].x), best)
                    << "closest-pair distance";
            };
        }
        SCOPED_TRACE(::testing::Message()
                     << "case " << c << " seed=" << seed << " alg=" << in.alg->name()
                     << " n=" << n << " p=" << in.hw.cpu.p << " g=" << in.hw.gpu.g
                     << " K=" << chunks);
        run_irregular_instance(in, /*functional=*/true);
        run_irregular_instance(in, /*functional=*/false);
    }
}

}  // namespace
}  // namespace hpu::core
