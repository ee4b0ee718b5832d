#include "model/basic.hpp"

#include <algorithm>
#include <cmath>

namespace hpu::model {

double basic_cpu_level_time(const sim::HpuParams& hw, const Recurrence& rec, double n, double i) {
    const double tasks = std::pow(rec.a, i);
    return hw.cpu.level_time(std::max(tasks / static_cast<double>(hw.cpu.p), 1.0),
                             rec.task_cost(n, i));
}

double basic_gpu_level_time(const sim::HpuParams& hw, const Recurrence& rec, double n, double i) {
    const double tasks = std::pow(rec.a, i);
    return hw.gpu.launch_time(std::max(tasks / static_cast<double>(hw.gpu.g), 1.0),
                              rec.task_cost(n, i));
}

BasicPrediction predict_basic(const sim::HpuParams& hw, const Recurrence& rec, double n,
                              double words_transferred) {
    rec.validate();
    BasicPrediction out;
    out.seq_time = rec.seq_work(n);
    out.cpu_only = hw.gpu_power() < static_cast<double>(hw.cpu.p);
    out.crossover_level =
        util::logb(static_cast<double>(hw.cpu.p) / hw.gpu.gamma, rec.a);

    const double L = rec.levels(n);
    double total = 0.0;
    for (double i = 0; i < L; i += 1.0) {
        const bool on_gpu = !out.cpu_only && i >= out.crossover_level;
        const double t = on_gpu ? basic_gpu_level_time(hw, rec, n, i)
                                : basic_cpu_level_time(hw, rec, n, i);
        out.levels.push_back(BasicLevel{i, on_gpu ? Unit::kGpu : Unit::kCpu, t});
        total += t;
    }
    // Leaves run wherever the deepest level runs (§5.1 case 4: the GPU when
    // it is active at all).
    const double leaf_tasks = rec.leaves(n);
    if (out.cpu_only) {
        total += hw.cpu.level_time(std::max(leaf_tasks / static_cast<double>(hw.cpu.p), 1.0),
                                   rec.leaf_cost);
    } else {
        total += hw.gpu.launch_time(std::max(leaf_tasks / static_cast<double>(hw.gpu.g), 1.0),
                                    rec.leaf_cost);
    }
    out.total_time = total;
    out.transfer_time =
        out.cpu_only ? 0.0 : 2.0 * hw.link.transfer_time(static_cast<std::uint64_t>(
                                  std::llround(words_transferred)));
    out.speedup = out.seq_time / (out.total_time + out.transfer_time);
    return out;
}

}  // namespace hpu::model
