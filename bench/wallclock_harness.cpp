// Wall-clock harness for the host-parallel functional engine: runs the
// Figure-8 size sweep through every executor twice — functional bodies
// inline (workers = 0) and across a util::ThreadPool — and reports real
// seconds plus the pooled-over-inline speedup. The virtual-clock results
// are identical between the two passes (the determinism sweep in
// tests/pool_determinism_test.cpp enforces that bit for bit); this harness
// measures the only thing the pool is allowed to change.
//
// Emits both an aligned table (or --csv) and a JSON artifact for CI:
//
//   { "bench": "wallclock", "algo": "mergesort_coalesced",
//     "platform": "HPU1", "host_concurrency": 8,
//     "entries": [ { "size": 16777216, "executor": "advanced",
//                    "workers": 7, "seconds": 0.41,
//                    "speedup_vs_serial": 3.2 }, ... ] }
//
// Flags (on top of the common ones in common.hpp):
//   --workers=<k>  pool worker threads for the parallel pass
//                  (default: hardware_concurrency - 1, min 1; the caller
//                  thread also drains chunks, so k workers use k+1 cores)
//   --lgmin=<l>    smallest size as log2(n)        (default 18)
//   --lgmax=<l>    largest size as log2(n)         (default 24)
//   --step=<s>     log2 stride through the sweep   (default 2)
//   --repeats=<k>  min-of-k timing per configuration (default 1; see
//                  common.hpp — repeats only steady the wall numbers,
//                  virtual results are identical across repeats)
//   --hull-n=<n>   point count for the irregular quickhull rows
//                  (default 65536; pick a size outside the lg sweep so the
//                  per-size normalizer stays unambiguous; 0 disables)
//   --out=<file>   JSON artifact path              (default BENCH_wallclock.json)
//   --profile      after the sweep, rerun every executor at the largest
//                  size with ExecOptions::profile on and derive the
//                  dual-clock ProfileReport (wall vs virtual per phase,
//                  pool host efficiency); prints the report and writes
//                  --profile-out=<f>  (default PROFILE_wallclock.json)
//                  --prom-out=<f>     (default METRICS_wallclock.prom,
//                  Prometheus text format: pool telemetry + sim counters)
//   --critpath     with --profile: print each profiled run's critical-path
//                  report and annotate the --trace-out export so
//                  chrome://tracing highlights the chain as a flow
//
// Runs are functional by definition here (--functional is implied): the
// analytic fast path executes no task bodies, so there is nothing for a
// pool to accelerate.
#include <fstream>
#include <thread>

#include "algos/quickhull.hpp"
#include "common.hpp"
#include "metrics/export.hpp"
#include "metrics/profile.hpp"
#include "metrics/registry.hpp"
#include "obs/watchdog.hpp"
#include "trace/counters.hpp"
#include "trace/export.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hpu;

constexpr const char* kExecutors[] = {"sequential", "multicore", "gpu",
                                      "basic",      "advanced",  "pipelined"};

struct Entry {
    std::uint64_t size = 0;
    std::string executor;
    std::size_t workers = 0;
    double seconds = 0.0;
    double speedup = 1.0;  ///< vs the workers = 0 run of the same config
};

/// One timed functional run. The pool is threaded through the Hpu; alpha /
/// y / K follow the Figure-8 recipe (model-optimal split per size). On the
/// irregular algorithms (quickhull below) the executors dispatch to the
/// dynamic-tree engine and (alpha, y) are ignored — the observed-width
/// scheduler re-splits every level.
template <typename T>
double timed_run(util::ThreadPool* pool, int executor, const sim::HpuParams& hw,
                 const core::LevelAlgorithm<T>& alg, const std::vector<T>& input,
                 double alpha, std::uint64_t y, std::uint64_t chunks,
                 trace::TraceSession* trace = nullptr) {
    sim::Hpu h(hw, pool);
    std::vector<T> data = input;
    core::ExecOptions opts;
    opts.functional = true;
    opts.validate = false;
    opts.trace = trace;
    opts.profile = trace != nullptr;
    std::span<T> d(data);
    util::Stopwatch sw;
    switch (executor) {
        case 0: core::run_sequential(h.cpu(), alg, d, opts); break;
        case 1: core::run_multicore(h.cpu(), alg, d, opts); break;
        case 2: core::run_gpu(h, alg, d, opts); break;
        case 3: core::run_basic_hybrid(h, alg, d, opts); break;
        case 4: {
            core::AdvancedOptions adv;
            adv.exec = opts;
            core::run_advanced_hybrid(h, alg, d, alpha, y, adv);
            break;
        }
        default: {
            core::PipelinedOptions pip;
            pip.chunks = chunks;
            pip.exec = opts;
            core::run_pipelined_hybrid(h, alg, d, alpha, y, pip);
            break;
        }
    }
    return sw.seconds();
}

void write_json(const std::string& path, const std::string& platform,
                std::size_t host_concurrency, const std::vector<Entry>& entries) {
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    os << "{\n";
    os << "  \"bench\": \"wallclock\",\n";
    os << "  \"algo\": \"mergesort_coalesced+quickhull\",\n";
    os << "  \"platform\": \"" << platform << "\",\n";
    os << "  \"host_concurrency\": " << host_concurrency << ",\n";
    os << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry& e = entries[i];
        os << "    {\"size\": " << e.size << ", \"executor\": \"" << e.executor
           << "\", \"workers\": " << e.workers << ", \"seconds\": " << e.seconds
           << ", \"speedup_vs_serial\": " << e.speedup << "}"
           << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "\nwrote " << entries.size() << " entries -> " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    const std::size_t hc = std::max(1u, std::thread::hardware_concurrency());
    // At least one worker even on a single-core host: the pooled pass must
    // exist for the artifact to carry a pooled-vs-inline comparison (the
    // speedup then just hovers around 1).
    const std::size_t workers = std::max<std::size_t>(1, bench::worker_threads(cli));
    const int lg_min = static_cast<int>(cli.get_int("lgmin", 18));
    const int lg_max = static_cast<int>(cli.get_int("lgmax", 24));
    const int step = static_cast<int>(cli.get_int("step", 2));
    const int reps = bench::repeats(cli);
    const std::string out = bench::out_path(cli, cli.get("out", "BENCH_wallclock.json"));
    const std::uint64_t chunks = std::max<std::uint64_t>(1, bench::pipeline_chunks(cli));

    // The JSON rows carry only size/executor/workers, so the quickhull rows
    // are told from the mergesort rows by their size alone.
    const std::uint64_t hull_n =
        static_cast<std::uint64_t>(cli.get_int("hull-n", 1 << 16));
    for (int lg = lg_min; lg <= lg_max; lg += step) {
        if (hull_n == (1ull << lg)) {
            std::cerr << "--hull-n=" << hull_n << " equals a sweep size (2^" << lg
                      << "); pick a point count outside the sweep\n";
            return 2;
        }
    }

    const platforms::PlatformSpec spec =
        platforms::by_name(cli.get("platform", "HPU1"));
    algos::MergesortCoalesced<std::int32_t> alg;

    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(workers);

    std::cout << "wall-clock harness: " << spec.name << ", workers 0 vs " << workers
              << " (host concurrency " << hc << ")\n";
    util::Table t({"n", "executor", "t inline (s)", "t pooled (s)", "speedup"}, 3);
    std::vector<Entry> entries;

    for (int lg = lg_min; lg <= lg_max; lg += step) {
        const std::uint64_t n = 1ull << lg;
        util::Rng rng(bench::input_seed(cli, n));
        const auto input = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));

        model::AdvancedModel m(spec.params, alg.recurrence(), static_cast<double>(n));
        const auto opt = m.optimize();
        const auto y = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(std::llround(opt.y)), 1, static_cast<std::uint64_t>(lg));

        for (int e = 0; e < 6; ++e) {
            const double t0 = bench::min_of(reps, [&] {
                return timed_run(&inline_pool, e, spec.params, alg, input, opt.alpha, y, chunks);
            });
            const double t1 = bench::min_of(reps, [&] {
                return timed_run(&pool, e, spec.params, alg, input, opt.alpha, y, chunks);
            });
            const double speedup = t1 > 0.0 ? t0 / t1 : 1.0;
            entries.push_back({n, kExecutors[e], 0, t0, 1.0});
            entries.push_back({n, kExecutors[e], workers, t1, speedup});
            t.add_row({static_cast<std::int64_t>(n), std::string(kExecutors[e]), t0, t1, speedup});
        }
    }

    // Irregular rows: quickhull at its own size, distinct from the sweep
    // sizes (checked above) so the per-size sequential-inline normalizer
    // of tools/bench_diff.py stays unambiguous. Same six executors, same
    // inline-vs-pooled comparison, same JSON artifact — bench_history and
    // the baseline gate pick the rows up with no schema change (the
    // baseline simply has no quickhull keys yet; bench_diff ignores
    // current-only entries).
    if (hull_n >= 2) {
        util::Rng rng(bench::input_seed(cli, hull_n) ^ 0x9e3779b97f4a7c15ull);
        std::vector<algos::Pt> pts(hull_n);
        for (auto& p : pts) {
            p.x = rng.uniform_int(-1000000, 1000000);
            p.y = rng.uniform_int(-1000000, 1000000);
        }
        algos::Quickhull qh;
        for (int e = 0; e < 6; ++e) {
            const double t0 = bench::min_of(reps, [&] {
                return timed_run(&inline_pool, e, spec.params, qh, pts, 0.3, 2, chunks);
            });
            const double t1 = bench::min_of(reps, [&] {
                return timed_run(&pool, e, spec.params, qh, pts, 0.3, 2, chunks);
            });
            const double speedup = t1 > 0.0 ? t0 / t1 : 1.0;
            entries.push_back({hull_n, kExecutors[e], 0, t0, 1.0});
            entries.push_back({hull_n, kExecutors[e], workers, t1, speedup});
            t.add_row({static_cast<std::int64_t>(hull_n),
                       "qh:" + std::string(kExecutors[e]), t0, t1, speedup});
        }
    }

    bench::emit(t, cli);
    write_json(out, spec.name, hc, entries);

    // --profile: one instrumented pass per executor at the largest size,
    // all into one session, pooled. The virtual results are identical to
    // the timed sweep above (zero-perturbation invariant, enforced by
    // tests/metrics_test.cpp); this pass only adds the wall annotations
    // the ProfileReport joins against.
    if (cli.get_bool("profile", false)) {
        const std::string profile_out =
            bench::out_path(cli, cli.get("profile-out", "PROFILE_wallclock.json"));
        const std::string prom_out =
            bench::out_path(cli, cli.get("prom-out", "METRICS_wallclock.prom"));
        const std::string trace_out =
            bench::out_path(cli, cli.get("trace-out", "TRACE_wallclock.json"));

        const std::uint64_t n = 1ull << lg_max;
        util::Rng rng(bench::input_seed(cli, n));
        const auto input = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
        model::AdvancedModel m(spec.params, alg.recurrence(), static_cast<double>(n));
        const auto opt = m.optimize();
        const auto y = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(std::llround(opt.y)), 1,
            static_cast<std::uint64_t>(lg_max));

        trace::TraceSession ts;
        pool.reset_telemetry();
        for (int e = 0; e < 6; ++e) {
            timed_run(&pool, e, spec.params, alg, input, opt.alpha, y, chunks, &ts);
        }
        const util::PoolTelemetry tel = pool.telemetry();

        const metrics::ProfileReport prof = metrics::derive_profile(ts, &tel);
        std::cout << "\n=== dual-clock profile (n=" << n << ", workers=" << workers
                  << ") ===\n";
        prof.print(std::cout);
        if (metrics::write_profile_json_file(prof, profile_out)) {
            std::cout << "profile -> " << profile_out << "\n";
        } else {
            std::cerr << "cannot write " << profile_out << "\n";
        }

        // Regression observatory: re-fit (g, gamma, lambda, delta) from the
        // profiled session against the configured platform and run the
        // watchdog checks. Strictly read-only over the closed session.
        obs::ObserveContext octx;
        octx.hw = spec.params;
        octx.rec = alg.recurrence();
        octx.device_ops_multiplier = alg.device_ops_multiplier(spec.params.gpu);
        octx.pool = tel;
        // GPU-only runs in the sweep legitimately underfill the lanes at
        // the shallow levels (the paper's motivation for the hybrids);
        // don't flag that as an anomaly in a mixed-executor session.
        octx.thresholds.gpu_occupancy_floor = 0.0;
        const obs::ObsReport orep = obs::observe(ts, trace::kNoSpan, octx);
        std::cout << "\n=== regression observatory ===\n";
        orep.print(std::cout);

        metrics::RegistrySnapshot snap;
        metrics::publish_pool(snap, tel);
        metrics::publish_counters(snap, trace::counters().snapshot());
        obs::publish_obs(snap, orep);
        if (metrics::write_prometheus_file(snap, prom_out)) {
            std::cout << "metrics -> " << prom_out << "\n";
        } else {
            std::cerr << "cannot write " << prom_out << "\n";
        }
        // --critpath: per-executor critical paths (the observatory's own
        // rep.critpath covers the whole session; this breaks it down per
        // run) plus the chain annotations in the exported trace.
        trace::ChromeExtras extras;
        if (cli.get_bool("critpath", false)) {
            for (trace::SpanId root : ts.children(trace::kNoSpan)) {
                const obs::CritPathReport crep = obs::extract_critical_path(ts, root);
                std::cout << "\n";
                crep.print(std::cout);
                obs::add_to_extras(extras, crep);
            }
        }
        if (trace::write_chrome_file(ts, trace_out, extras)) {
            std::cout << "trace -> " << trace_out << " (" << ts.spans().size()
                      << " spans, wall-annotated"
                      << (extras.empty() ? "" : ", critical paths annotated")
                      << "; diff against a prior run with examples/run_diff)\n";
        } else {
            std::cerr << "cannot write " << trace_out << "\n";
        }
    }
    return 0;
}
