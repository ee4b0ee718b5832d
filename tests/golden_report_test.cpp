// Golden pin of the executors' observable output: for every regular and
// irregular algorithm, every executor (the split schedulers at two
// transfer levels), both modes (functional, analytic)
// and six platforms (the paper's two and four with odd parameters), the
// full ExecReport (floating-point fields as
// hexfloats), the verify/analysis/observation summaries, a hash of the
// output array, and a hash of the complete span tree (kind, unit, label,
// parent, virtual start/end and every attribute; no wall fields) must match
// tests/golden_reports.txt exactly.
//
// On a mismatch the test writes the actual golden_reports.txt and a full
// dump with the span trees spelled out (golden_report_actual.txt) to the
// working directory: diffing two dumps finds the first diverging span, and
// a deliberate change is accepted by copying the actual file over the
// committed one.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/closest_pair.hpp"
#include "algos/fft.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/mergesort_blocked.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

std::string hexf(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// FNV-1a over raw bytes.
struct Fnv {
    std::uint64_t h = 1469598103934665603ull;
    void add(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    void add(const std::string& s) { add(s.data(), s.size() + 1); }
};

std::string span_line(const trace::Span& s) {
    const trace::SpanAttrs& a = s.attrs;
    std::ostringstream os;
    os << "  span " << s.id << ' ' << s.parent << ' ' << static_cast<int>(s.kind) << ' '
       << static_cast<int>(s.unit) << ' ' << s.label << ' ' << hexf(s.start) << ' '
       << hexf(s.end) << " lvl=" << a.level << " tasks=" << a.tasks << " items=" << a.items
       << " waves=" << a.waves << " ops=" << hexf(a.ops) << " max=" << hexf(a.max_ops)
       << " work=" << hexf(a.work) << " bytes=" << a.bytes
       << " tx=" << a.coalesced_transactions << '/' << a.strided_transactions
       << " ext=" << a.extent_words << " imb=" << hexf(a.imbalance);
    return os.str();
}

std::string report_line(const ExecReport& r, std::uint64_t out_hash) {
    std::ostringstream os;
    os << "total=" << hexf(r.total) << " cpu=" << hexf(r.cpu_busy)
       << " gpu=" << hexf(r.gpu_busy) << " xfer=" << hexf(r.transfer)
       << " finish=" << hexf(r.finish) << " lcpu=" << r.levels_cpu << " lgpu=" << r.levels_gpu
       << " alpha=" << hexf(r.alpha_effective) << " chunks=" << r.chunks
       << " spawned=" << r.tasks_spawned << " verify=" << r.verify.checks_passed << '/'
       << r.verify.findings.size() << '/' << r.verify.certified()
       << " analysis=" << r.analysis.launches_checked << '/' << r.analysis.findings.size()
       << '/' << r.analysis.launches_skipped << '/' << r.analysis.findings_suppressed
       << " obs=" << r.obs.attempted << '/' << r.obs.findings.size() << " out=" << std::hex
       << out_hash << std::dec;
    return os.str();
}

/// One algorithm under test: runs executor `e` on a fresh copy of its
/// seeded input and returns the report plus an output hash.
struct Case {
    std::string name;
    std::function<ExecReport(int e, sim::Hpu& h, const ExecOptions& o, std::uint64_t& hash)>
        run;
};

/// The six executors; the two split schedulers run at a transfer level
/// equal to the split level (y = 6: no finish climb over the device slice)
/// and below it (y = 8).
const char* const kExecutors[] = {"sequential",   "multicore",   "gpu",
                                  "basic",        "advanced-y6", "pipelined-y6",
                                  "advanced-y8",  "pipelined-y8"};

template <typename T>
ExecReport dispatch(int e, sim::Hpu& h, const LevelAlgorithm<T>& alg, std::span<T> d,
                    const ExecOptions& o) {
    switch (e) {
        case 0: return run_sequential(h.cpu(), alg, d, o);
        case 1: return run_multicore(h.cpu(), alg, d, o);
        case 2: return run_gpu(h, alg, d, o);
        case 3: return run_basic_hybrid(h, alg, d, o);
        case 4:
        case 6: {
            AdvancedOptions adv;
            adv.exec = o;
            return run_advanced_hybrid(h, alg, d, 0.3, e == 4 ? 6 : 8, adv);
        }
        default: {
            PipelinedOptions pip;
            pip.exec = o;
            pip.chunks = 4;
            return run_pipelined_hybrid(h, alg, d, 0.3, e == 5 ? 6 : 8, pip);
        }
    }
}

template <typename T>
Case make_case(std::string name, std::shared_ptr<const LevelAlgorithm<T>> alg,
               std::vector<T> input) {
    Case c;
    c.name = std::move(name);
    c.run = [alg, input](int e, sim::Hpu& h, const ExecOptions& o, std::uint64_t& hash) {
        std::vector<T> d = input;
        const ExecReport r = dispatch(e, h, *alg, std::span<T>(d), o);
        Fnv f;
        if (o.functional) f.add(d.data(), d.size() * sizeof(T));
        hash = f.h;
        return r;
    };
    return c;
}

std::vector<Case> cases() {
    util::Rng rng(2026);
    const std::uint64_t n = 1024;
    const auto ints = rng.int_vector(n, 0, 1 << 20);
    std::vector<std::complex<double>> wave(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        wave[i] = {static_cast<double>(ints[i] % 97) - 48.0,
                   static_cast<double>(ints[(i * 7) % n] % 31) - 15.0};
    }
    std::vector<algos::Pt> pts(300);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        pts[i] = {ints[2 * i] % 500, ints[2 * i + 1] % 500};
    }
    std::vector<std::int64_t> operands(2 * 151);
    for (std::size_t i = 0; i < operands.size(); ++i) operands[i] = ints[i] % 1000;

    using I32 = std::int32_t;
    std::vector<Case> out;
    out.push_back(make_case<I32>("mergesort-plain",
                                 std::make_shared<algos::MergesortPlain<I32>>(), ints));
    out.push_back(make_case<I32>("mergesort-coalesced",
                                 std::make_shared<algos::MergesortCoalesced<I32>>(), ints));
    out.push_back(make_case<I32>("mergesort-blocked4",
                                 std::make_shared<algos::MergesortBlocked<I32>>(4), ints));
    out.push_back(make_case<I32>(
        "dc-sum", std::make_shared<algos::DcSum<I32>>(algos::make_sum<I32>()), ints));
    out.push_back(make_case<I32>(
        "dc-max", std::make_shared<algos::DcMax<I32>>(algos::make_max<I32>()), ints));
    out.push_back(make_case<I32>(
        "dc-min", std::make_shared<algos::DcMin<I32>>(algos::make_min<I32>()), ints));
    out.push_back(make_case<std::complex<double>>("fft", std::make_shared<algos::DcFft>(),
                                                  wave));
    out.push_back(
        make_case<algos::Pt>("quickhull", std::make_shared<algos::Quickhull>(), pts));
    out.push_back(
        make_case<algos::Pt>("closest-pair", std::make_shared<algos::ClosestPair>(), pts));
    out.push_back(make_case<std::int64_t>(
        "karatsuba", std::make_shared<algos::KaratsubaArray>(), operands));
    return out;
}

/// The two paper platforms plus three with odd parameters: three cores,
/// narrow multi-wave launches, a launch overhead and a link whose costs are
/// not round numbers, so device and link ticks carry rounding and the pin
/// sees a change in the order a sum is formed. ODD-SLOW has a weak device
/// (the basic hybrid falls back, the pipelined guard chooses differently).
/// ODD-LLC adds LLC contention, which makes every CPU tick fractional too;
/// it runs in analytic mode only (a functional split run prices its CPU
/// slice's contention from the whole input since that was fixed, and the
/// pin predates the fix). WEAK-HOST pairs one core with a fast, cheaply
/// linked device, so the irregular algorithms' narrow levels still favor
/// the device and their split schedulers run device parts.
sim::HpuParams platform_params(const std::string& name) {
    if (name == "HPU1" || name == "HPU2") return platforms::by_name(name).params;
    if (name == "WEAK-HOST") {
        sim::HpuParams hw = platforms::hpu1();
        hw.name = name;
        hw.cpu.p = 1;
        hw.gpu.g = 64;
        hw.gpu.gamma = 0.5;
        hw.gpu.strided_penalty = 2.0;
        hw.gpu.launch_overhead = 0.0;
        hw.link.lambda = 5.0;
        hw.link.delta = 0.01;
        return hw;
    }
    sim::HpuParams hw = platforms::hpu2();
    hw.name = name;
    hw.cpu.p = 3;
    hw.gpu.g = 90;
    hw.gpu.gamma = name == "ODD-SLOW" ? 1.0 / 37.0 : 1.0 / 7.3;
    hw.gpu.launch_overhead = 0.7;
    hw.link.lambda = 1234.567;
    hw.link.delta = 0.731;
    if (name == "ODD-LLC") {
        hw.cpu.contention = 0.25;
        hw.cpu.llc_bytes = 3000;
    }
    return hw;
}

TEST(GoldenReports, EveryExecutorReportAndSpanTreeIsPinned) {
    std::ostringstream compact, full;
    for (const Case& c : cases()) {
        for (const std::string platform : {"HPU1", "HPU2", "ODD", "ODD-SLOW", "ODD-LLC",
                                              "WEAK-HOST"}) {
            const bool paper = platform.starts_with("HPU");
            for (const bool functional : {true, false}) {
                if (functional && platform == "ODD-LLC") continue;
                for (int e = 0; e < 8; ++e) {
                    // Validation (functional runs on the paper platforms)
                    // re-runs kernels through the analysis passes; pin its
                    // counters too.
                    for (const bool validate : {false, true}) {
                        if (validate && !(functional && paper)) continue;
                        sim::Hpu h(platform_params(platform));
                        trace::TraceSession session;
                        ExecOptions o;
                        o.functional = functional;
                        o.validate = validate;
                        o.verify = true;
                        o.observe = true;
                        o.profile = false;
                        o.trace = &session;
                        std::uint64_t out_hash = 0;
                        const ExecReport r = c.run(e, h, o, out_hash);
                        Fnv spans;
                        std::ostringstream tree;
                        for (const trace::Span& s : session.spans()) {
                            const std::string line = span_line(s);
                            spans.add(line);
                            tree << line << '\n';
                        }
                        std::ostringstream key;
                        key << c.name << ' ' << platform << ' '
                            << (functional ? "functional" : "analytic")
                            << (validate ? "+validate" : "") << ' ' << kExecutors[e];
                        const std::string head = key.str() + " | " + report_line(r, out_hash) +
                                                 " | spans=" +
                                                 std::to_string(session.spans().size());
                        std::ostringstream hash;
                        hash << std::hex << spans.h;
                        compact << head << " hash=" << hash.str() << '\n';
                        full << head << '\n' << tree.str();
                    }
                }
            }
        }
    }
    std::stringstream want;
    want << std::ifstream(HPU_GOLDEN_FILE).rdbuf();
    if (want.str() != compact.str()) {
        std::ofstream("golden_report_actual.txt") << full.str();
        std::ofstream("golden_reports.txt") << compact.str();
        std::istringstream a(want.str()), b(compact.str());
        std::string la, lb;
        int line = 1;
        while (std::getline(a, la) && std::getline(b, lb) && la == lb) ++line;
        FAIL() << "golden mismatch with " << HPU_GOLDEN_FILE << " at line " << line
               << "\n  want: " << la << "\n  got:  " << lb
               << "\nThe actual golden_reports.txt and a full dump with span trees"
                  " (golden_report_actual.txt) were written to the working directory.";
    }
}

}  // namespace
}  // namespace hpu::core
