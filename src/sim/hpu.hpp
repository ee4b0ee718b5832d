// The assembled Hybrid Processing Unit: one CpuUnit, one Device, and the
// link between them. This is the machine object that the core schedulers
// (src/core) drive; where the time went is recorded in hpu::trace spans.
#pragma once

#include <memory>

#include "sim/cpu_unit.hpp"
#include "sim/device.hpp"
#include "sim/params.hpp"
#include "util/thread_pool.hpp"

namespace hpu::sim {

class Hpu {
public:
    /// `pool` accelerates the *functional* execution of both units on
    /// multi-core hosts (CPU levels and device waves); the virtual clock
    /// is bit-identical with or without it (enforced by test). May be
    /// null: everything then runs inline on the caller.
    explicit Hpu(HpuParams params, util::ThreadPool* pool = nullptr)
        : params_(std::move(params)), cpu_(params_.cpu, pool), gpu_(params_.gpu, pool) {
        params_.validate();
    }

    const HpuParams& params() const noexcept { return params_; }
    CpuUnit& cpu() noexcept { return cpu_; }
    Device& gpu() noexcept { return gpu_; }

private:
    HpuParams params_;
    CpuUnit cpu_;
    Device gpu_;
};

}  // namespace hpu::sim
