#include "model/observed.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace hpu::model {
namespace {

double cpu_makespan(const sim::CpuParams& cpu, double total, double max_cost) {
    return std::max(cpu.host_pass_time(total), max_cost);
}

/// A task's device ops: its own when known, else cost × multiplier.
double device_ops(const ObservedTask& t, double mult) {
    return t.device_ops >= 0.0 ? t.device_ops : t.cost * mult;
}

/// waves[k] for every split k ∈ [0, W]: the wave times of the device part
/// [k, W) as sim::Device::launch charges them — per wave of g tasks from k
/// on, the wave time of its slowest task. waves[W] = 0. O(W) without
/// data-dependent branches: in blocks of g tasks, the wave [k, k + g) is a
/// suffix of k's block and a prefix of the next one, so its slowest task is
/// the larger of a running suffix maximum and the next block's prefix
/// maximum; the wave sums S[k] = M[k] + S[k + g] follow from the right.
std::span<const double> wave_sums(const sim::HpuParams& hw, std::span<const ObservedTask> tasks,
                                  double mult, SplitScratch& s) {
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    const std::size_t w = tasks.size();
    const std::size_t g = std::min<std::uint64_t>(hw.gpu.g, w + 1);
    s.waves.resize(w + 1);
    s.waves[w] = 0.0;
    s.prefix.resize(g);
    for (std::size_t end = w; end > 0;) {
        const std::size_t begin = (end - 1) / g * g;
        // prefix[i]: the slowest of the first i tasks after the block.
        double slowest = kNone;
        for (std::size_t i = 0; i < g; ++i) {
            s.prefix[i] = slowest;
            if (end + i < w) slowest = std::max(slowest, device_ops(tasks[end + i], mult));
        }
        double suffix = kNone;
        for (std::size_t k = end; k-- > begin;) {
            suffix = std::max(suffix, device_ops(tasks[k], mult));
            s.waves[k] = hw.gpu.wave_time(std::max(suffix, s.prefix[k - begin])) +
                         (k + g < w ? s.waves[k + g] : 0.0);
        }
        end = begin;
    }
    return s.waves;
}

}  // namespace

ObservedSplit split_observed_level(const sim::HpuParams& hw,
                                   std::span<const ObservedTask> tasks,
                                   double device_multiplier, bool include_transfers) {
    SplitScratch scratch;
    return split_observed_level(hw, tasks, device_multiplier, include_transfers, scratch);
}

ObservedSplit split_observed_level(const sim::HpuParams& hw,
                                   std::span<const ObservedTask> tasks,
                                   double device_multiplier, bool include_transfers,
                                   SplitScratch& scratch) {
    const std::span<const double> waves = wave_sums(hw, tasks, device_multiplier, scratch);
    std::uint64_t words = 0;  // of the device part [k, W)
    for (const ObservedTask& t : tasks) words += t.words;
    // gpu(k): the launch overhead, the wave times and, with transfers, both
    // link transfers of the part's words; 0 for the empty part k = W.
    auto gpu = [&](std::size_t k) {
        if (k == tasks.size()) return 0.0;
        double price = hw.gpu.launch_overhead + waves[k];
        if (include_transfers) price += 2.0 * hw.link.transfer_time(static_cast<double>(words));
        return price;
    };
    ObservedSplit best;
    best.gpu_est = gpu(0);
    double sum = 0.0, max_cost = 0.0, best_sum = 0.0;
    for (std::size_t k = 1; k <= tasks.size(); ++k) {
        sum += tasks[k - 1].cost;
        max_cost = std::max(max_cost, tasks[k - 1].cost);
        words -= tasks[k - 1].words;
        const double cpu = cpu_makespan(hw.cpu, sum, max_cost);
        const double gpu_k = gpu(k);
        if (std::max(cpu, gpu_k) <= std::max(best.cpu_est, best.gpu_est)) {
            best.cpu_tasks = k;
            best.cpu_est = cpu;
            best.gpu_est = gpu_k;
            best_sum = sum;
        }
    }
    best.alpha = sum > 0.0 ? best_sum / sum : 0.0;
    return best;
}

ObservedPlacement place_observed_level(const sim::HpuParams& hw,
                                       std::span<const ObservedTask> tasks,
                                       double device_multiplier, double cpu_extra,
                                       double gpu_extra, SplitScratch& scratch) {
    double total = 0.0, max_cost = 0.0;
    for (const ObservedTask& t : tasks) {
        total += t.cost;
        max_cost = std::max(max_cost, t.cost);
    }
    ObservedPlacement pl;
    pl.cpu_est = cpu_makespan(hw.cpu, total, max_cost) + cpu_extra;
    // The device part of split k = 0 without its transfers: 0 for an
    // empty level.
    const double device =
        tasks.empty()
            ? 0.0
            : hw.gpu.launch_overhead + wave_sums(hw, tasks, device_multiplier, scratch)[0];
    pl.gpu_est = device + gpu_extra;
    pl.unit = pl.cpu_est <= pl.gpu_est ? LevelPlacement::kCpu : LevelPlacement::kGpu;
    return pl;
}

}  // namespace hpu::model
