#include "model/observed.hpp"

#include <algorithm>
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
/// on, the wave time of its slowest task. waves[W] = 0. O(W): a sliding
/// maximum of width g (a ring of at most g + 1 tasks, device ops
/// decreasing from head to back), then the wave sums S[k] = M[k] + S[k + g]
/// from the right.
std::span<const double> wave_sums(const sim::HpuParams& hw, std::span<const ObservedTask> tasks,
                                  double mult, SplitScratch& s) {
    const std::size_t w = tasks.size();
    const std::size_t g = std::min<std::uint64_t>(hw.gpu.g, w + 1);
    const std::size_t cap = g + 1;
    s.waves.resize(w + 1);
    s.waves[w] = 0.0;
    s.window.resize(cap);
    std::size_t head = 0, size = 0;
    auto at = [&](std::size_t i) -> std::pair<std::size_t, double>& {
        return s.window[head + i < cap ? head + i : head + i - cap];
    };
    for (std::size_t k = w; k-- > 0;) {
        const double ops = device_ops(tasks[k], mult);
        while (size > 0 && at(size - 1).second <= ops) --size;
        at(size++) = {k, ops};
        if (at(0).first >= k + g) {
            head = head + 1 < cap ? head + 1 : 0;
            --size;
        }
        s.waves[k] = hw.gpu.wave_time(at(0).second) + (k + g < w ? s.waves[k + g] : 0.0);
    }
    return s.waves;
}

/// The device price of the whole level (split k = 0, no transfers): the
/// launch overhead plus its wave times, summed right to left like the
/// suffix sums of wave_sums. 0 for an empty level.
double whole_level_device_price(const sim::HpuParams& hw, std::span<const ObservedTask> tasks,
                                double mult) {
    const std::size_t w = tasks.size(), g = hw.gpu.g;
    if (w == 0) return 0.0;
    double waves = 0.0;
    for (std::size_t b = (w - 1) / g * g;; b -= g) {
        double slowest = device_ops(tasks[b], mult);
        for (std::size_t j = b + 1; j < std::min(b + g, w); ++j) {
            slowest = std::max(slowest, device_ops(tasks[j], mult));
        }
        waves = hw.gpu.wave_time(slowest) + waves;
        if (b == 0) break;
    }
    return hw.gpu.launch_overhead + waves;
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
                                       double gpu_extra) {
    double total = 0.0, max_cost = 0.0;
    for (const ObservedTask& t : tasks) {
        total += t.cost;
        max_cost = std::max(max_cost, t.cost);
    }
    ObservedPlacement pl;
    pl.cpu_est = cpu_makespan(hw.cpu, total, max_cost) + cpu_extra;
    pl.gpu_est = whole_level_device_price(hw, tasks, device_multiplier) + gpu_extra;
    pl.unit = pl.cpu_est <= pl.gpu_est ? LevelPlacement::kCpu : LevelPlacement::kGpu;
    return pl;
}

}  // namespace hpu::model
