#include "model/estimate.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace hpu::model {

sim::Ticks probe_elementwise_sum(sim::Device& device, std::uint64_t n, std::uint64_t threads) {
    HPU_CHECK(threads >= 1 && threads <= n, "thread count must be in [1, n]");
    // The probe's data content is irrelevant to timing (uniform per-element
    // cost) and no transfer is priced; we still execute the kernel
    // functionally to keep the probe honest.
    std::vector<std::int32_t> av(n), bv(n), ov(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        av[i] = static_cast<std::int32_t>(i);
        bv[i] = static_cast<std::int32_t>(2 * i);
    }
    const auto result = device.launch(threads, [&](sim::WorkItem& wi) {
        // Work-item `id` handles the consecutive chunk [lo, hi) — the same
        // partitioning the paper's probe used, which accesses coalesced
        // segments under the permuted layout assumption.
        const std::uint64_t id = wi.global_id();
        const std::uint64_t chunk = util::ceil_div(n, wi.global_size());
        const std::uint64_t lo = id * chunk;
        const std::uint64_t hi = std::min(n, lo + chunk);
        for (std::uint64_t i = lo; i < hi; ++i) {
            ov[i] = av[i] + bv[i];
        }
        if (hi > lo) {
            wi.charge_compute(hi - lo);
            wi.charge_mem(3 * (hi - lo), sim::Pattern::kCoalesced);
        }
    });
    return result.time;
}

std::vector<SaturationPoint> saturation_sweep(sim::Device& device, std::uint64_t n,
                                              const std::vector<std::uint64_t>& thread_counts) {
    std::vector<SaturationPoint> out;
    out.reserve(thread_counts.size());
    for (std::uint64_t t : thread_counts) {
        out.push_back(SaturationPoint{t, probe_elementwise_sum(device, n, t)});
    }
    return out;
}

std::uint64_t estimate_g(const std::vector<SaturationPoint>& sweep, double tolerance) {
    HPU_CHECK(!sweep.empty(), "empty saturation sweep");
    sim::Ticks best = sweep.front().time;
    for (const auto& s : sweep) best = std::min(best, s.time);
    for (const auto& s : sweep) {
        if (s.time <= best * (1.0 + tolerance)) return s.threads;
    }
    return sweep.back().threads;
}

std::uint64_t estimate_g(sim::Device& device, std::uint64_t n, std::uint64_t max_threads,
                         double tolerance) {
    std::vector<std::uint64_t> counts;
    for (std::uint64_t t = 1; t <= max_threads; t *= 2) counts.push_back(t);
    auto coarse = saturation_sweep(device, n, counts);
    const std::uint64_t knee = estimate_g(coarse, tolerance);
    // Linear refinement around the coarse knee: a power-of-two sweep
    // aliases when the true lane count is not a power of two (the time of
    // t items is ceil(t/g)·(n/t) work per lane, which ties at multiples of
    // g), so probe [knee/2, 2·knee] linearly, keeping the knee itself.
    if (knee <= 2) return knee;
    std::vector<std::uint64_t> fine = {knee};
    const std::uint64_t lo = knee / 2;
    const std::uint64_t hi = std::min(max_threads, 2 * knee);
    const std::uint64_t step = std::max<std::uint64_t>(1, (hi - lo) / 32);
    for (std::uint64_t t = lo; t <= hi; t += step) fine.push_back(t);
    std::sort(fine.begin(), fine.end());
    fine.erase(std::unique(fine.begin(), fine.end()), fine.end());
    auto refined = saturation_sweep(device, n, fine);
    return estimate_g(refined, tolerance);
}

namespace {

/// Scalar two-list merge charging its ops; runs identically on either unit.
/// Access is sequential within the single running item: strided from the
/// SIMT point of view (a lone item cannot coalesce with neighbours), which
/// is exactly the situation the paper's γ probe measures.
template <typename ChargeFn>
void merge_charged(std::span<const std::int32_t> lhs, std::span<const std::int32_t> rhs,
                   std::span<std::int32_t> out, ChargeFn&& charge) {
    std::size_t i = 0, j = 0, k = 0;
    while (i < lhs.size() && j < rhs.size()) {
        out[k++] = lhs[i] <= rhs[j] ? lhs[i++] : rhs[j++];
    }
    while (i < lhs.size()) out[k++] = lhs[i++];
    while (j < rhs.size()) out[k++] = rhs[j++];
    charge(static_cast<std::uint64_t>(k));
}

}  // namespace

GammaSample probe_merge_ratio(sim::Device& device, sim::CpuUnit& cpu, std::uint64_t n) {
    util::Rng rng(n * 7919 + 17);
    auto lhs = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    auto rhs = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
    std::vector<std::int32_t> out(2 * n);

    GammaSample s;
    s.n = n;
    const auto launch = device.launch(1, [&](sim::WorkItem& wi) {
        merge_charged(lhs, rhs, out, [&](std::uint64_t k) {
            wi.charge_compute(k);
            // A single work-item's sequential walk cannot coalesce with
            // neighbours, but it also isn't scattered; charge plain words so
            // the probe recovers the architectural γ (see DESIGN.md §5.2).
            wi.charge_mem(2 * k, sim::Pattern::kCoalesced);
        });
    });
    s.gpu_time = launch.time;
    const auto level = cpu.run_level(1, [&](std::uint64_t, sim::OpCounter& ops) {
        merge_charged(lhs, rhs, out, [&](std::uint64_t k) {
            ops.charge_compute(k);
            ops.charge_mem(2 * k, sim::Pattern::kCoalesced);
        });
    });
    s.cpu_time = level.time;
    s.ratio = s.cpu_time > 0 ? s.gpu_time / s.cpu_time : 0.0;
    return s;
}

std::vector<GammaSample> gamma_sweep(sim::Device& device, sim::CpuUnit& cpu,
                                     const std::vector<std::uint64_t>& sizes) {
    std::vector<GammaSample> out;
    out.reserve(sizes.size());
    for (std::uint64_t n : sizes) out.push_back(probe_merge_ratio(device, cpu, n));
    return out;
}

double estimate_gamma_inv(const std::vector<GammaSample>& sweep) {
    HPU_CHECK(!sweep.empty(), "empty gamma sweep");
    std::vector<double> ratios;
    ratios.reserve(sweep.size());
    for (const auto& s : sweep) ratios.push_back(s.ratio);
    std::nth_element(ratios.begin(), ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2),
                     ratios.end());
    return ratios[ratios.size() / 2];
}

}  // namespace hpu::model
