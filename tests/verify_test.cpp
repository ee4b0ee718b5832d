// Tests of the hpu::verify static pass (ISSUE 6): the footprint prover's
// disjointness rules and counterexample search on hand-built footprints,
// race-freedom proofs for every shipped algorithm, runtime reproduction of
// static counterexamples by the word-level detector, conformance flagging
// of mis-declared footprints across every executor and host mode,
// schedule-invariant checks on hand-built plans, certificate attachment
// with byte-identical reports, and the HPU_VERIFY gate.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/fft.hpp"
#include "algos/mergesort.hpp"
#include "algos/mergesort_blocked.hpp"
#include "core/executors.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/prover.hpp"
#include "verify/report.hpp"
#include "verify/schedule.hpp"
#include "verify/verify.hpp"

namespace hpu::verify {
namespace {

SymAccess slice_access() {
    SymAccess a;
    a.base = Sym::lit(0);
    a.jcoef = Sym::size();
    a.words = Sym::size();
    a.stride = Sym::lit(1);
    return a;
}

std::uint64_t count_kind(const VerifyReport& r, VerifyFinding::Kind k) {
    std::uint64_t c = 0;
    for (const auto& f : r.findings) c += f.kind == k ? 1 : 0;
    return c;
}

// ------------------------------------------------------- prover rule units

TEST(Prover, SliceRuleProvesOwnSliceAccess) {
    TaskFootprint fp;
    fp.reads.push_back(slice_access());
    fp.writes.push_back(slice_access());
    const PhaseProof pp = prove_phase(Phase::kCpuTask, fp, ProofContext{2, 2, false});
    EXPECT_EQ(pp.status, ProofStatus::kProven);
    EXPECT_EQ(pp.rules, "slice");
    EXPECT_GT(pp.pairs_checked, 0u);
}

TEST(Prover, ColumnAndRegionRulesProveInterleavedPingPong) {
    // The §6.3 coalesced walk: interleaved input columns of the ping
    // buffer, one output column of the pong buffer.
    SymAccess even{Region::kPing, Sym::lit(0), Sym::lit(2), Sym::size(1, 2), Sym::count(2)};
    SymAccess odd = even;
    odd.base = Sym::lit(1);
    SymAccess out{Region::kPong, Sym::lit(0), Sym::lit(1), Sym::size(), Sym::count(1)};
    TaskFootprint fp;
    fp.reads = {even, odd};
    fp.writes = {out};
    const PhaseProof pp = prove_phase(Phase::kDeviceTask, fp, ProofContext{2, 2, false});
    EXPECT_EQ(pp.status, ProofStatus::kProven);
    EXPECT_EQ(pp.rules, "region+column");
}

TEST(Prover, EmptyAndReadOnlyFootprintsAreTriviallyProven) {
    const PhaseProof empty =
        prove_phase(Phase::kLeaf, TaskFootprint{}, ProofContext{2, 1, true});
    EXPECT_EQ(empty.status, ProofStatus::kProven);
    EXPECT_EQ(empty.rules, "empty");

    TaskFootprint ro;
    ro.reads.push_back(slice_access());
    const PhaseProof nw = prove_phase(Phase::kCpuTask, ro, ProofContext{2, 2, false});
    EXPECT_EQ(nw.status, ProofStatus::kProven);
    EXPECT_EQ(nw.rules, "no-writes");
}

TEST(Prover, UndeclaredFootprintStaysUndeclared) {
    const PhaseProof pp =
        prove_phase(Phase::kCpuTask, std::nullopt, ProofContext{2, 2, false});
    EXPECT_EQ(pp.status, ProofStatus::kUndeclared);
}

TEST(Prover, MalformedFootprintIsUnknownNotProven) {
    TaskFootprint fp;
    SymAccess bad = slice_access();
    bad.stride.den = 0;  // division by zero — not a well-formed linear form
    fp.writes.push_back(bad);
    const PhaseProof pp = prove_phase(Phase::kCpuTask, fp, ProofContext{2, 2, false});
    EXPECT_EQ(pp.status, ProofStatus::kUnknown);
    EXPECT_EQ(pp.rules, "malformed");
}

TEST(Prover, SharedWordYieldsConcreteCounterexample) {
    // Every task writes word 0: the smallest witness is two tasks of the
    // minimum size both touching word 0.
    TaskFootprint fp;
    SymAccess word0;
    word0.base = Sym::lit(0);
    word0.jcoef = Sym::lit(0);
    fp.writes.push_back(word0);
    const PhaseProof pp = prove_phase(Phase::kCpuTask, fp, ProofContext{2, 2, false});
    ASSERT_EQ(pp.status, ProofStatus::kCounterexample);
    ASSERT_TRUE(pp.counterexample.has_value());
    const Counterexample& ce = *pp.counterexample;
    EXPECT_EQ(ce.word, 0u);
    EXPECT_EQ(ce.n, 4u);  // 2 tasks of sz_min = 2
    EXPECT_NE(ce.j_a, ce.j_b);
    EXPECT_TRUE(ce.write_write);
    EXPECT_NE(ce.describe().find("write-write"), std::string::npos);
}

// ----------------------------------------- proofs for shipped algorithms

TEST(Prover, AllShippedAlgorithmsProveRaceFree) {
    algos::MergesortPlain<std::int32_t> plain;
    algos::MergesortCoalesced<std::int32_t> coalesced;
    algos::MergesortBlocked<std::int32_t> blocked(16);
    auto sum = algos::make_sum<std::int32_t>();
    auto mx = algos::make_max<std::int32_t>();
    algos::DcFft fft;

    const std::vector<const core::LevelAlgorithm<std::int32_t>*> algs{&plain, &coalesced,
                                                                      &blocked, &sum, &mx};
    for (const core::LevelAlgorithm<std::int32_t>* alg : algs) {
        const VerifyReport rep = prove_algorithm(*alg);
        EXPECT_TRUE(rep.race_free()) << rep.summary();
        EXPECT_TRUE(rep.findings.empty()) << rep.summary();
    }
    const VerifyReport frep = prove_algorithm(fft);
    EXPECT_TRUE(frep.race_free()) << frep.summary();

    // The coalesced device walk needs the column rule; the plain one only
    // ever needs slice containment.
    const VerifyReport crep = prove_algorithm(coalesced);
    ASSERT_NE(crep.proof(Phase::kDeviceTask), nullptr);
    EXPECT_NE(crep.proof(Phase::kDeviceTask)->rules.find("column"), std::string::npos);
    const VerifyReport prep = prove_algorithm(plain);
    ASSERT_NE(prep.proof(Phase::kCpuTask), nullptr);
    EXPECT_EQ(prep.proof(Phase::kCpuTask)->rules, "slice");
}

// ----------------------- static counterexample reproduced by the runtime

/// Injected defect: every task folds into word 0 and HONESTLY declares it,
/// both in the access log and in the symbolic footprint. The prover must
/// refute the declaration statically; the runtime detector must reproduce
/// the overlap on the very word the counterexample names.
class RacyFold final : public core::LevelAlgorithm<int> {
public:
    std::string name() const override { return "racy-fold"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }
    model::Recurrence recurrence() const override { return model::sum_recurrence(4.0); }

    void run_task(std::span<int> data, std::uint64_t count, std::uint64_t j,
                  sim::OpCounter& ops) const override {
        const std::uint64_t sz = data.size() / count;
        // Unsigned arithmetic: the fold wraps around instead of overflowing.
        data[0] = static_cast<int>(static_cast<unsigned>(data[0]) * 2u +
                                   static_cast<unsigned>(data[j * sz]));
        ops.charge_compute(2);
        ops.charge_mem(3, sim::Pattern::kStrided);
        ops.log_read(0, 1);
        ops.log_read(j * sz, 1);
        ops.log_write(0, 1);
    }

    std::optional<TaskFootprint> footprint(const FootprintQuery& query) const override {
        if (query.phase == Phase::kLeaf) return TaskFootprint{};
        SymAccess word0;
        word0.base = Sym::lit(0);
        word0.jcoef = Sym::lit(0);
        SymAccess own;
        own.base = Sym::lit(0);
        own.jcoef = Sym::size();
        TaskFootprint fp;
        fp.reads = {word0, own};
        fp.writes = {word0};
        return fp;
    }
};

TEST(StaticRace, CounterexampleIsReproducedByTheRuntimeDetector) {
    RacyFold alg;
    const VerifyReport srep = prove_algorithm(alg);
    EXPECT_FALSE(srep.race_free());
    EXPECT_GE(count_kind(srep, VerifyFinding::Kind::kRaceCounterexample), 1u);
    ASSERT_NE(srep.proof(Phase::kCpuTask), nullptr);
    ASSERT_TRUE(srep.proof(Phase::kCpuTask)->counterexample.has_value());
    const Counterexample ce = *srep.proof(Phase::kCpuTask)->counterexample;
    EXPECT_TRUE(ce.write_write);

    // Unproven phases keep the word-level detector, which must hit the
    // same address the static witness names.
    std::vector<int> data(64, 1);
    sim::Hpu h(platforms::hpu1());
    core::ExecOptions opts;
    opts.validate = true;
    opts.verify = true;
    const auto rep = core::run_multicore(h.cpu(), alg, std::span(data), opts);
    EXPECT_TRUE(rep.verify.attempted);
    EXPECT_FALSE(rep.verify.certified());
    EXPECT_TRUE(rep.analysis.has(analysis::FindingKind::kWriteWriteRace));
    EXPECT_TRUE(rep.analysis.has(analysis::FindingKind::kReadWriteRace));
    bool same_word = false;
    for (const auto& f : rep.analysis.findings) {
        if (f.kind == analysis::FindingKind::kWriteWriteRace && f.address == ce.word) {
            same_word = true;
        }
    }
    EXPECT_TRUE(same_word);
}

// --------------------------- conformance catches footprint mis-declaration

/// Injected defect: the declared footprint is NARROWER than the truth —
/// it claims each task touches only the first half of its slice, while
/// the kernel logs (and merges) the whole slice. The narrowed declaration
/// still proves race-free, so every executor takes the conformance path,
/// which must refute the declaration at runtime.
class NarrowedMergesort final : public algos::MergesortPlain<std::int32_t> {
public:
    std::string name() const override { return "narrowed-mergesort"; }

    std::optional<TaskFootprint> footprint(const FootprintQuery& query) const override {
        if (query.phase == Phase::kLeaf) {
            return algos::MergesortPlain<std::int32_t>::footprint(query);
        }
        SymAccess half = slice_access();
        half.words = Sym::size(1, 2);  // declares sz/2 of the true sz words
        TaskFootprint fp;
        fp.reads.push_back(half);
        fp.writes.push_back(half);
        return fp;
    }
};

void expect_violation_everywhere(util::ThreadPool* pool, const char* mode) {
    sim::Hpu h(platforms::hpu1(), pool);
    NarrowedMergesort alg;
    EXPECT_TRUE(prove_algorithm(alg).race_free());  // the lie is self-consistent

    const std::uint64_t n = 256;
    util::Rng rng(n);
    const auto base = rng.int_vector(n, 0, 2 * n);
    core::ExecOptions opts;
    opts.validate = true;
    opts.verify = true;

    auto expect_flagged = [&](const core::ExecReport& rep, const char* executor) {
        EXPECT_TRUE(rep.verify.attempted) << mode << "/" << executor;
        EXPECT_TRUE(rep.analysis.has(analysis::FindingKind::kFootprintViolation))
            << mode << "/" << executor << ":\n"
            << rep.analysis.summary();
    };

    auto data = base;
    expect_flagged(core::run_sequential(h.cpu(), alg, std::span(data), opts), "sequential");
    data = base;
    expect_flagged(core::run_multicore(h.cpu(), alg, std::span(data), opts), "multicore");
    data = base;
    expect_flagged(core::run_gpu(h, alg, std::span(data), opts), "gpu");
    data = base;
    expect_flagged(core::run_basic_hybrid(h, alg, std::span(data), opts), "basic-hybrid");
    data = base;
    core::AdvancedOptions adv;
    adv.exec = opts;
    expect_flagged(core::run_advanced_hybrid(h, alg, std::span(data), 0.25, 3, adv),
                   "advanced-hybrid");
    data = base;
    core::PipelinedOptions pip;
    pip.exec = opts;
    expect_flagged(core::run_pipelined_hybrid(h, alg, std::span(data), 0.25, 3, pip),
                   "pipelined-hybrid");
}

TEST(Conformance, NarrowedFootprintFlaggedByEveryExecutorInline) {
    expect_violation_everywhere(nullptr, "inline");
}

TEST(Conformance, NarrowedFootprintFlaggedByEveryExecutorPooled) {
    util::ThreadPool pool(4);
    expect_violation_everywhere(&pool, "pooled");
}

// ------------------------------- certificates and validate-path identity

TEST(Certificate, VerifiedRunIsByteIdenticalAndCertified) {
    const std::uint64_t n = 512;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    util::Rng rng(77);
    const auto base = rng.int_vector(n, 0, 2 * n);

    auto plain = base;
    core::ExecOptions off;
    off.validate = true;
    off.verify = false;
    const auto rep_off = core::run_gpu(h, alg, std::span(plain), off);

    auto checked = base;
    core::ExecOptions on;
    on.validate = true;
    on.verify = true;
    const auto rep_on = core::run_gpu(h, alg, std::span(checked), on);

    // Proven launches swap word concretization for conformance; results,
    // virtual clock, and the analysis counters must not move.
    EXPECT_EQ(plain, checked);
    EXPECT_DOUBLE_EQ(rep_off.total, rep_on.total);
    EXPECT_DOUBLE_EQ(rep_off.gpu_busy, rep_on.gpu_busy);
    EXPECT_TRUE(rep_off.analysis.findings.empty()) << rep_off.analysis.summary();
    EXPECT_TRUE(rep_on.analysis.findings.empty()) << rep_on.analysis.summary();
    EXPECT_EQ(rep_off.analysis.launches_checked, rep_on.analysis.launches_checked);
    EXPECT_EQ(rep_off.analysis.launches_skipped, rep_on.analysis.launches_skipped);

    EXPECT_FALSE(rep_off.verify.attempted);
    ASSERT_TRUE(rep_on.verify.attempted);
    EXPECT_TRUE(rep_on.verify.certified()) << rep_on.verify.summary();
    EXPECT_TRUE(rep_on.verify.race_free());
    EXPECT_GT(rep_on.verify.checks_passed, 0u);
}

TEST(Certificate, ParallelTailRunIsCleanAndCertified) {
    // The §7 parallel tail at switch ceil(L/2): the per-task levels are
    // race-checked as usual, the element-wise ones have no item body to
    // check, and the priced plan with its element-wise events certifies.
    const std::uint64_t n = 1 << 12;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    util::Rng rng(12);
    auto data = rng.int_vector(n, 0, 2 * n);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    core::ExecOptions opts;
    opts.validate = true;
    opts.verify = true;
    const auto rep = core::run_gpu(h, alg, std::span(data), opts, true, 6);
    EXPECT_EQ(data, expect);
    EXPECT_TRUE(rep.analysis.findings.empty()) << rep.analysis.summary();
    EXPECT_GT(rep.analysis.launches_checked, 0u);
    ASSERT_TRUE(rep.verify.attempted);
    EXPECT_TRUE(rep.verify.findings.empty()) << rep.verify.summary();
    EXPECT_TRUE(rep.verify.certified()) << rep.verify.summary();
    EXPECT_EQ(rep.levels_gpu, 12u);
}

TEST(Certificate, PipelinedRunAttachesCertificate) {
    const std::uint64_t n = 4096;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> alg;
    util::Rng rng(3);
    auto data = rng.int_vector(n, 0, 2 * n);
    core::PipelinedOptions pip;
    pip.exec.validate = true;
    pip.exec.verify = true;
    const auto rep = core::run_pipelined_hybrid(h, alg, std::span(data), 0.25, 3, pip);
    ASSERT_TRUE(rep.verify.attempted);
    EXPECT_TRUE(rep.verify.certified()) << rep.verify.summary();
    EXPECT_EQ(rep.verify.executor, "pipelined-hybrid");
    EXPECT_NE(rep.verify.summary().find("certified"), std::string::npos);
}

TEST(Certificate, ReconstructedPlansPassForEveryExecutorShape) {
    const std::uint64_t n = 1024;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortPlain<std::int32_t> alg;
    const VerifyReport seq =
        verify_plan(alg, core::plan_cpu(alg, n, "sequential"), h.params());
    EXPECT_TRUE(seq.certified()) << seq.summary();
    for (const RunShape::Kind kind :
         {RunShape::Kind::kGpu, RunShape::Kind::kBasic, RunShape::Kind::kAdvanced,
          RunShape::Kind::kPipelined}) {
        RunShape shape;
        shape.kind = kind;
        shape.alpha = 0.25;
        shape.y = 3;
        const VerifyReport rep = verify_hybrid_run(alg, n, h, shape);
        EXPECT_TRUE(rep.certified()) << rep.summary();
        EXPECT_GT(rep.checks_passed, 0u) << rep.summary();
    }
}

// --------------------------------------------- schedule invariant checks

PlanEvent cpu_level(double start, double dur, std::uint64_t tasks, double work) {
    PlanEvent e;
    e.unit = PlanEvent::Unit::kCpu;
    e.kind = PlanEvent::Kind::kLevel;
    e.start = start;
    e.duration = dur;
    e.tasks = tasks;
    e.words = tasks;
    e.work = work;
    e.label = "cpu-level[test]";
    return e;
}

PlanEvent gpu_level(double start, double dur, std::uint64_t offset, std::uint64_t words) {
    PlanEvent e;
    e.unit = PlanEvent::Unit::kGpu;
    e.kind = PlanEvent::Kind::kLevel;
    e.start = start;
    e.duration = dur;
    e.offset = offset;
    e.words = words;
    e.label = "gpu-level[test]";
    return e;
}

PlanEvent xfer(PlanEvent::Kind kind, double start, double dur, std::uint64_t offset,
               std::uint64_t words) {
    PlanEvent e;
    e.unit = PlanEvent::Unit::kLink;
    e.kind = kind;
    e.start = start;
    e.duration = dur;
    e.offset = offset;
    e.words = words;
    e.label = kind == PlanEvent::Kind::kXferIn ? "xfer-in[test]" : "xfer-out[test]";
    return e;
}

TEST(ScheduleChecker, OverbookedCpuSlotIsCapacityExceeded) {
    SchedulePlan plan;
    plan.executor = "unit";
    plan.events.push_back(cpu_level(0.0, 1.0, 4, 1e6));  // 1e6 ops in p core-ticks
    VerifyReport rep;
    check_plan(plan, platforms::hpu1(), rep);
    EXPECT_GE(count_kind(rep, VerifyFinding::Kind::kCapacityExceeded), 1u);
}

TEST(ScheduleChecker, OverlappingEventsOnOneUnitAreFlagged) {
    SchedulePlan plan;
    plan.executor = "unit";
    plan.events.push_back(cpu_level(0.0, 10.0, 1, 0.0));
    plan.events.push_back(cpu_level(5.0, 10.0, 1, 0.0));  // same unit, mid-flight
    VerifyReport rep;
    check_plan(plan, platforms::hpu1(), rep);
    EXPECT_GE(count_kind(rep, VerifyFinding::Kind::kCapacityExceeded), 1u);
}

TEST(ScheduleChecker, ZeroWidthUnitBreaksWaveConservation) {
    sim::HpuParams hw = platforms::hpu1();
    hw.gpu.g = 0;  // a malformed hardware description cannot cover any task
    SchedulePlan plan;
    plan.executor = "unit";
    PlanEvent e = gpu_level(0.0, 1e9, 0, 16);
    e.tasks = 16;
    plan.events.push_back(e);
    VerifyReport rep;
    check_plan(plan, hw, rep);
    EXPECT_GE(count_kind(rep, VerifyFinding::Kind::kWaveConservation), 1u);
}

TEST(ScheduleChecker, ComputeBeforeTransferArrivesIsPrecedenceViolation) {
    SchedulePlan plan;
    plan.executor = "unit";
    plan.events.push_back(xfer(PlanEvent::Kind::kXferIn, 0.0, 5.0, 0, 64));
    plan.events.push_back(gpu_level(20.0, 1e9, 0, 128));  // needs [0,128), only [0,64) ships
    VerifyReport rep;
    check_plan(plan, platforms::hpu1(), rep);
    EXPECT_GE(count_kind(rep, VerifyFinding::Kind::kPrecedenceViolation), 1u);
}

TEST(ScheduleChecker, ReadbackDuringComputeIsPrecedenceViolation) {
    SchedulePlan plan;
    plan.executor = "unit";
    plan.events.push_back(xfer(PlanEvent::Kind::kXferIn, 0.0, 1.0, 0, 64));
    plan.events.push_back(gpu_level(10.0, 1e9, 0, 64));
    plan.events.push_back(xfer(PlanEvent::Kind::kXferOut, 11.0, 1.0, 0, 64));  // mid-kernel
    VerifyReport rep;
    check_plan(plan, platforms::hpu1(), rep);
    EXPECT_GE(count_kind(rep, VerifyFinding::Kind::kPrecedenceViolation), 1u);
}

TEST(ScheduleChecker, OverlappingInputChunksAreChunkOverlap) {
    SchedulePlan plan;
    plan.executor = "unit";
    plan.events.push_back(xfer(PlanEvent::Kind::kXferIn, 0.0, 1.0, 0, 64));
    plan.events.push_back(xfer(PlanEvent::Kind::kXferIn, 1.0, 1.0, 32, 64));  // [32,96)
    VerifyReport rep;
    check_plan(plan, platforms::hpu1(), rep);
    EXPECT_GE(count_kind(rep, VerifyFinding::Kind::kChunkOverlap), 1u);
}

TEST(ScheduleChecker, OverlappingOutputChunksAreChunkOverlap) {
    SchedulePlan plan;
    plan.executor = "unit";
    plan.events.push_back(xfer(PlanEvent::Kind::kXferOut, 0.0, 1.0, 0, 64));
    plan.events.push_back(xfer(PlanEvent::Kind::kXferOut, 1.0, 1.0, 32, 64));  // [32,96)
    VerifyReport rep;
    check_plan(plan, platforms::hpu1(), rep);
    EXPECT_EQ(count_kind(rep, VerifyFinding::Kind::kChunkOverlap), 1u);
}

TEST(ScheduleChecker, ComputeOverInFlightChunkIsChunkOverlap) {
    SchedulePlan plan;
    plan.executor = "unit";
    plan.events.push_back(xfer(PlanEvent::Kind::kXferIn, 0.0, 10.0, 0, 64));
    plan.events.push_back(gpu_level(5.0, 1e9, 0, 64));  // stream still in flight
    VerifyReport rep;
    check_plan(plan, platforms::hpu1(), rep);
    EXPECT_GE(count_kind(rep, VerifyFinding::Kind::kChunkOverlap), 1u);
}

TEST(ScheduleChecker, NeverWorseGuardFlagsNonImprovingPipeline) {
    VerifyReport bad;
    check_never_worse(5.0, 4.0, 2, bad);
    EXPECT_EQ(count_kind(bad, VerifyFinding::Kind::kNeverWorseViolated), 1u);
    EXPECT_NE(bad.findings[0].message().find("never-worse-violated"), std::string::npos);

    VerifyReport good;
    check_never_worse(4.0, 5.0, 2, good);
    check_never_worse(7.0, 6.0, 1, good);  // K = 1: the guard already degenerated
    EXPECT_TRUE(good.findings.empty());
    EXPECT_EQ(good.checks_passed, 2u);
}

// ------------------------------------------------------------- env gating

TEST(EnvGate, HpuVerifySeedsTheDefault) {
    ::unsetenv("HPU_VERIFY");
    EXPECT_FALSE(core::ExecOptions{}.verify);
    ::setenv("HPU_VERIFY", "1", 1);
    EXPECT_TRUE(core::ExecOptions{}.verify);
    ::setenv("HPU_VERIFY", "off", 1);
    EXPECT_FALSE(core::ExecOptions{}.verify);
    ::setenv("HPU_VERIFY", "ON", 1);
    EXPECT_TRUE(core::ExecOptions{}.verify);
    ::unsetenv("HPU_VERIFY");
}

}  // namespace
}  // namespace hpu::verify
