#include "model/advanced.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace hpu::model {

namespace {
double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }
}  // namespace

AdvancedModel::AdvancedModel(sim::HpuParams hw, Recurrence rec, double n)
    : hw_(std::move(hw)), rec_(std::move(rec)), n_(n) {
    rec_.validate();
    hw_.validate();
    HPU_CHECK(n_ > 1.0, "need n > 1");
    levels_ = rec_.levels(n_);
    leaves_ = rec_.leaves(n_);
}

double AdvancedModel::alpha_min() const {
    return std::min(1.0, static_cast<double>(hw_.cpu.p) / leaves_);
}

double AdvancedModel::level_sum(double y, bool gpu_times, double beta) const {
    if (y >= levels_) return 0.0;
    y = std::max(y, 0.0);
    const double g = static_cast<double>(hw_.gpu.g);
    auto term = [&](double i) {
        if (!gpu_times) return rec_.level_work(n_, i);
        const double tasks = beta * std::pow(rec_.a, i);
        return hw_.gpu.launch_time(std::max(tasks / g, 1.0), rec_.task_cost(n_, i));
    };
    double sum = 0.0;
    const double start = std::ceil(y);
    if (start > y) {
        // Partial slice of level floor(y): weight (min(start, L) − y).
        sum += (std::min(start, levels_) - y) * term(std::floor(y));
    }
    for (double i = start; i < levels_ - 1e-9; i += 1.0) sum += term(i);
    return sum;
}

double AdvancedModel::cpu_parallel_time(double alpha) const {
    HPU_CHECK(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    const double p = static_cast<double>(hw_.cpu.p);
    // Level where the CPU share shrinks to p tasks: log_a(p/α).
    const double i1 = std::clamp(util::logb(p / alpha, rec_.a), 0.0, levels_);
    const double work = leaves_ * rec_.leaf_cost + level_sum(i1, /*gpu_times=*/false, alpha);
    return alpha / p * work;
}

double AdvancedModel::gpu_time(double alpha, double y) const {
    HPU_CHECK(alpha >= 0.0 && alpha < 1.0, "alpha must be in [0, 1)");
    return gpu_time_for_share(1.0 - alpha, y);
}

double AdvancedModel::gpu_time_for_share(double beta, double y) const {
    HPU_CHECK(beta > 0.0 && beta <= 1.0, "device share must be in (0, 1]");
    const double g = static_cast<double>(hw_.gpu.g);
    const double leaves_time =
        hw_.gpu.launch_time(std::max(beta * leaves_ / g, 1.0), rec_.leaf_cost);
    return leaves_time + level_sum(y, /*gpu_times=*/true, beta);
}

double AdvancedModel::y_of_alpha(double alpha) const {
    const double tc = cpu_parallel_time(alpha);
    // T_g(α, y) is continuous and non-increasing in y.
    if (gpu_time(alpha, 0.0) <= tc) return 0.0;       // GPU finishes the whole tree
    if (gpu_time(alpha, levels_) >= tc) return levels_;  // GPU barely does the leaves
    double lo = 0.0, hi = levels_;
    for (int it = 0; it < 200; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (gpu_time(alpha, mid) > tc) {
            lo = mid;  // GPU needs more time than the CPU grants: raise y
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

double AdvancedModel::gpu_work_at(double alpha, double y) const {
    return (1.0 - alpha) * (leaves_ * rec_.leaf_cost + level_sum(y, /*gpu_times=*/false, alpha));
}

double AdvancedModel::gpu_work(double alpha) const {
    return gpu_work_at(alpha, y_of_alpha(alpha));
}

double AdvancedModel::finish_time(double alpha, double y) const {
    const double p = static_cast<double>(hw_.cpu.p);
    const double i1 = std::clamp(util::logb(p / alpha, rec_.a), 0.0, levels_);
    const double top = std::ceil(std::max(y, i1));
    double total = 0.0;
    for (double i = 0; i < top; i += 1.0) {
        // Fractions of level i still pending after the parallel phase.
        const double rem =
            alpha * clamp01(i1 - i) + (1.0 - alpha) * clamp01(y - i);
        if (rem <= 0.0) continue;
        const double tasks = rem * std::pow(rec_.a, i);
        total += hw_.cpu.level_time(std::max(tasks / p, 1.0), rec_.task_cost(n_, i));
    }
    return total;
}

AdvancedPrediction AdvancedModel::predict_at(double alpha, double y) const {
    HPU_CHECK(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    y = std::clamp(y, 0.0, levels_);
    AdvancedPrediction out;
    out.alpha = alpha;
    out.y = y;
    out.seq_time = rec_.seq_work(n_);
    out.cpu_parallel_time = std::max(cpu_parallel_time(alpha), gpu_time(alpha, y));
    out.gpu_work = gpu_work_at(alpha, y);
    out.gpu_work_share = out.gpu_work / out.seq_time;
    out.finish_time = finish_time(alpha, y);
    const double words = (1.0 - alpha) * n_;
    out.transfer_time =
        2.0 * hw_.link.transfer_time(static_cast<std::uint64_t>(std::llround(words)));
    out.total_time = out.cpu_parallel_time + out.finish_time + out.transfer_time;
    out.speedup = out.seq_time / out.total_time;
    return out;
}

AdvancedPrediction AdvancedModel::optimize() const {
    const double lo = std::max(alpha_min(), 1e-4);
    const double hi = 0.999;
    HPU_CHECK(lo < hi, "input too small for the advanced schedule");
    // W_g(α) is piecewise smooth with case changes; a dense grid plus local
    // refinement is robust where golden-section is not.
    auto grid_best = [&](double a0, double a1, int steps) {
        double best_a = a0, best_w = -1.0;
        for (int s = 0; s <= steps; ++s) {
            const double a = a0 + (a1 - a0) * s / steps;
            const double w = gpu_work(a);
            if (w > best_w) {
                best_w = w;
                best_a = a;
            }
        }
        return best_a;
    };
    double a = grid_best(lo, hi, 400);
    const double step = (hi - lo) / 400.0;
    a = grid_best(std::max(lo, a - step), std::min(hi, a + step), 100);
    return predict_at(a, y_of_alpha(a));
}

}  // namespace hpu::model
