// The basic hybrid work division of §5.1: every recursion-tree level runs
// entirely on whichever unit executes it faster; there is a single
// CPU→GPU handoff at level i* = log_a(p / γ) (top levels on the CPU, the
// rest on the GPU), provided γ·g ≥ p.
#pragma once

#include "model/recurrence.hpp"
#include "sim/params.hpp"

namespace hpu::model {

/// Per-level placement under the basic strategy.
enum class Unit { kCpu, kGpu };

struct BasicLevel {
    double level = 0.0;
    Unit unit = Unit::kCpu;
    double time = 0.0;
};

struct BasicPrediction {
    /// Crossover level i* = log_a(p / γ); levels i >= i* run on the GPU.
    double crossover_level = 0.0;
    /// True when γ·g < p: the GPU never wins and everything stays on the CPU.
    bool cpu_only = false;
    double total_time = 0.0;      ///< predicted schedule makespan (no transfers)
    double transfer_time = 0.0;   ///< two boundary transfers of n words each
    double seq_time = 0.0;        ///< 1-core baseline
    double speedup = 0.0;         ///< seq / (total + transfers)
    std::vector<BasicLevel> levels;
};

/// Time of level i on the CPU: max(a^i / p, 1) rounds of f(n/b^i) — fewer
/// than p tasks leave cores idle but the level still costs one task.
double basic_cpu_level_time(const sim::HpuParams& hw, const Recurrence& rec, double n, double i);

/// Time of level i on the GPU: max(a^i / g, 1) waves of f(n/b^i).
double basic_gpu_level_time(const sim::HpuParams& hw, const Recurrence& rec, double n, double i);

/// Full basic-schedule prediction for input size n (elements of
/// `word_bytes` bytes each feed the transfer cost; n words move each way).
BasicPrediction predict_basic(const sim::HpuParams& hw, const Recurrence& rec, double n,
                              double words_transferred = 0.0);

}  // namespace hpu::model
