#include "model/observed.hpp"

#include <algorithm>
#include <deque>
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

/// gpu[k] for every split k ∈ [0, W]: the device part [k, W) priced as
/// sim::Device::launch charges it — the launch overhead plus, per wave of
/// g tasks from k on, the wave time of its slowest task — and, with
/// `transfers`, both link transfers of its words. gpu[W] = 0. O(W): a
/// sliding-window maximum of width g (monotonic deque), then the wave sums
/// S[k] = M[k] + S[k + g] from the right.
std::vector<double> device_prices(const sim::HpuParams& hw, std::span<const ObservedTask> tasks,
                                  double mult, bool transfers) {
    const std::size_t w = tasks.size();
    const std::size_t g = std::min<std::uint64_t>(hw.gpu.g, w + 1);
    std::vector<double> waves(w + g, 0.0), gpu(w + 1, 0.0);
    std::deque<std::size_t> window;  // task indices, device ops decreasing front to back
    std::uint64_t words = 0;
    for (std::size_t k = w; k-- > 0;) {
        const double ops = device_ops(tasks[k], mult);
        while (!window.empty() && device_ops(tasks[window.back()], mult) <= ops) {
            window.pop_back();
        }
        window.push_back(k);
        if (window.front() >= k + g) window.pop_front();
        waves[k] = hw.gpu.wave_time(device_ops(tasks[window.front()], mult)) + waves[k + g];
        words += tasks[k].words;
        gpu[k] = hw.gpu.launch_overhead + waves[k];
        if (transfers) gpu[k] += 2.0 * hw.link.transfer_time(words);
    }
    return gpu;
}

}  // namespace

ObservedSplit split_observed_level(const sim::HpuParams& hw,
                                   std::span<const ObservedTask> tasks,
                                   double device_multiplier, bool include_transfers) {
    const std::vector<double> gpu = device_prices(hw, tasks, device_multiplier, include_transfers);
    ObservedSplit best;
    best.gpu_est = gpu[0];
    double sum = 0.0, max_cost = 0.0, best_sum = 0.0;
    for (std::size_t k = 1; k <= tasks.size(); ++k) {
        sum += tasks[k - 1].cost;
        max_cost = std::max(max_cost, tasks[k - 1].cost);
        const double cpu = cpu_makespan(hw.cpu, sum, max_cost);
        if (std::max(cpu, gpu[k]) <= std::max(best.cpu_est, best.gpu_est)) {
            best.cpu_tasks = k;
            best.cpu_est = cpu;
            best.gpu_est = gpu[k];
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
    pl.gpu_est = device_prices(hw, tasks, device_multiplier, false).front() + gpu_extra;
    pl.unit = pl.cpu_est <= pl.gpu_est ? LevelPlacement::kCpu : LevelPlacement::kGpu;
    return pl;
}

}  // namespace hpu::model
