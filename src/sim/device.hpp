// The simulated GPU device: executes kernels functionally on the host while
// charging virtual time according to the HPU cost model (see params.hpp).
//
// Execution model (mirrors §3.1/§4.2 of the paper): a kernel launch of N
// work-items runs in ceil(N / g) waves of up to g lanes. All items execute
// the same kernel body; each identifies its subproblem from its global id
// (Alg. 3). A wave lasts as long as its slowest item; waves execute back to
// back. Items charge their work through WorkItem::ops().
//
// A kernel takes either one item (WorkItem&) or, like an OpenCL
// work-group, a run of at most kGroupItems consecutive items (WorkGroup&)
// with one OpCounter each: a group kernel can share host-side work across
// its items (the §6.3 mergesort stages its group's columns together).
// Either way each item charges its own counter, and the counters are
// folded in item order, so the grouping is invisible to the virtual clock.
//
// Functional execution is optionally *host-parallel*: constructed with a
// util::ThreadPool, the device runs a whole launch as one pool batch (the
// items of one launch are independent by the framework's contract — the
// hpu::analysis race detector enforces it). A wave is a unit of the
// virtual clock only. The host splits each wave into blocks of
// consecutive items, no block straddling two waves, and each block folds
// its items' max GPU op count and OpCounter sum into its own slot. After
// the batch the slots are folded wave by wave in index order, and the
// wave durations are summed in a serial loop over waves. Every slot fold
// is a uint64 sum or a double max, exact in any grouping, so virtual
// time, LaunchResult, and WaveTrace are bit-identical with or without a
// pool (enforced by test). Without a pool the same block loop runs inline,
// one block per wave. A work-group never leaves its block, so it never
// straddles a wave.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/op_counter.hpp"
#include "sim/params.hpp"
#include "trace/counters.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace hpu::sim {

/// Handle given to each kernel invocation: identity + charge interface.
class WorkItem {
public:
    WorkItem(std::uint64_t global_id, std::uint64_t global_size, OpCounter& ops) noexcept
        : global_id_(global_id), global_size_(global_size), ops_(&ops) {}

    /// OpenCL get_global_id(0).
    std::uint64_t global_id() const noexcept { return global_id_; }
    /// OpenCL get_global_size(0): total items in the launch.
    std::uint64_t global_size() const noexcept { return global_size_; }

    OpCounter& ops() noexcept { return *ops_; }

    void charge_compute(std::uint64_t n) noexcept { ops_->charge_compute(n); }
    void charge_mem(std::uint64_t words, Pattern p) noexcept { ops_->charge_mem(words, p); }

private:
    std::uint64_t global_id_;
    std::uint64_t global_size_;
    OpCounter* ops_;
};

/// Most items a launch hands one group kernel (OpenCL's local size).
inline constexpr std::uint64_t kGroupItems = 16;

/// Handle given to each group-kernel invocation: the consecutive items
/// [first_id(), first_id() + size()) of one charge block, item i charging
/// ops()[i]. A group never straddles a wave.
class WorkGroup {
public:
    WorkGroup(std::uint64_t first_id, std::span<OpCounter> ops) noexcept
        : first_id_(first_id), ops_(ops) {}

    /// Global id of the group's first item.
    std::uint64_t first_id() const noexcept { return first_id_; }
    /// Items in the group, 1..kGroupItems.
    std::uint64_t size() const noexcept { return ops_.size(); }
    /// One zeroed counter per item, in item order.
    std::span<OpCounter> ops() const noexcept { return ops_; }

private:
    std::uint64_t first_id_;
    std::span<OpCounter> ops_;
};

/// Result of one kernel launch.
struct LaunchResult {
    Ticks time = 0.0;          ///< virtual duration of the launch
    std::uint64_t items = 0;   ///< work-items executed
    std::uint64_t waves = 0;   ///< ceil(items / g)
    OpCounter total_ops;       ///< sum of all item charges
    double max_item_ops = 0;   ///< largest per-item GPU op count observed
};

/// One SIMT wave of a launch, recorded into an optional external sink (see
/// Device::set_wave_trace) for the hpu::trace span tracer. Purely
/// observational: attaching a sink never changes launch timing.
struct WaveTrace {
    std::uint64_t first_item = 0;  ///< global id of the wave's first item
    std::uint64_t items = 0;       ///< busy lanes in this wave (<= g)
    Ticks duration = 0.0;          ///< wave time: max item ops / gamma
    double max_item_ops = 0.0;     ///< the critical item's GPU op count
    OpCounter ops;                 ///< summed charges of the wave's items
};

class Device {
public:
    /// `pool` may be null: items then run inline on the caller (the
    /// virtual clock is unaffected either way — the pool only accelerates
    /// functional execution on multi-core hosts).
    explicit Device(DeviceParams params, util::ThreadPool* pool = nullptr)
        : params_(params), pool_(pool) {
        params_.validate();
    }

    const DeviceParams& params() const noexcept { return params_; }

    util::ThreadPool* pool() const noexcept { return pool_; }

    /// Attach (or detach, with nullptr) a per-wave sink for the next
    /// launches. The device does not own the sink; it must outlive its use.
    void set_wave_trace(std::vector<WaveTrace>* sink) noexcept { wave_trace_ = sink; }

    /// Launches `n_items` items of `kernel`, a callable taking WorkItem&
    /// (one call per item) or WorkGroup& (one call per run of at most
    /// kGroupItems items inside a charge block). Items run functionally on
    /// the host; virtual time follows
    /// the wave model. An exception from a kernel body propagates to the
    /// caller, and the failed launch records nothing: no counters or wave
    /// traces. Inline, no further items run after the throw. Pooled,
    /// the pool's contract applies: chunks claimed after the failure is
    /// recorded are skipped, but chunks already running finish, so items
    /// of any wave — earlier or later than the failing one — may still run.
    ///
    /// `items_use_pool` declares that the kernel bodies can split their own
    /// work across the host pool (LevelAlgorithm::intra_task_parallel): a
    /// launch whose waves are no wider than the pool then runs inline so
    /// the workers serve the merges *inside* the few items. Wall-clock
    /// only — the inline fold is bit-identical to the pooled one.
    template <typename Kernel>
    LaunchResult launch(std::uint64_t n_items, Kernel&& kernel, bool items_use_pool = false) {
        HPU_CHECK(n_items >= 1, "kernel launch needs at least one work-item");
        LaunchResult r;
        r.items = n_items;
        r.waves = util::ceil_div(n_items, params_.g);
        const std::uint64_t width = std::min(n_items, params_.g);  // widest wave
        const std::uint64_t workers = pool_ != nullptr ? pool_->worker_count() : 0;
        const bool pooled = workers > 0 && width > 1 && !(items_use_pool && width <= workers);
        // Inline, a block is a whole wave: nothing to balance, and the
        // work-groups stay full.
        const std::uint64_t block =
            pooled ? std::min(width, block_items(n_items, workers + 1)) : width;
        const std::uint64_t wave_blocks = util::ceil_div(width, block);
        const std::uint64_t last_wave = n_items - (r.waves - 1) * params_.g;
        const std::uint64_t n_blocks =
            (r.waves - 1) * wave_blocks + util::ceil_div(last_wave, block);
        blocks_.assign(n_blocks, BlockCharges<double>{});
        auto run_block = [&](std::uint64_t b) {
            const std::uint64_t wave = b / wave_blocks;
            const std::uint64_t begin = wave * params_.g + (b % wave_blocks) * block;
            const std::uint64_t end = std::min({begin + block, (wave + 1) * params_.g, n_items});
            BlockCharges<double> acc;
            if constexpr (std::is_invocable_v<Kernel&, WorkGroup&>) {
                std::array<OpCounter, kGroupItems> ops;
                for (std::uint64_t first = begin; first < end; first += kGroupItems) {
                    const std::uint64_t size = std::min(kGroupItems, end - first);
                    std::fill_n(ops.begin(), size, OpCounter{});
                    WorkGroup group(first, std::span(ops.data(), size));
                    kernel(group);
                    for (std::uint64_t i = 0; i < size; ++i) {
                        acc.max_cost =
                            std::max(acc.max_cost, ops[i].gpu_ops(params_.strided_penalty));
                        acc.ops += ops[i];
                    }
                }
            } else {
                for (std::uint64_t id = begin; id < end; ++id) {
                    OpCounter ops;
                    WorkItem wi(id, n_items, ops);
                    kernel(wi);
                    acc.max_cost = std::max(acc.max_cost, ops.gpu_ops(params_.strided_penalty));
                    acc.ops += ops;
                }
            }
            blocks_[b] = acc;
        };
        if (pooled) {
            pool_->parallel_for(n_blocks, run_block);
        } else {
            for (std::uint64_t b = 0; b < n_blocks; ++b) run_block(b);
        }
        Ticks total = params_.launch_overhead;
        for (std::uint64_t w = 0; w < r.waves; ++w) {
            BlockCharges<double> wave;
            for (std::uint64_t b = w * wave_blocks; b < std::min((w + 1) * wave_blocks, n_blocks);
                 ++b) {
                wave.max_cost = std::max(wave.max_cost, blocks_[b].max_cost);
                wave.ops += blocks_[b].ops;
            }
            const Ticks wave_time = params_.wave_time(wave.max_cost);
            total += wave_time;
            r.max_item_ops = std::max(r.max_item_ops, wave.max_cost);
            r.total_ops += wave.ops;
            if (wave_trace_ != nullptr) {
                const std::uint64_t first = w * params_.g;
                wave_trace_->push_back({first, std::min(params_.g, n_items - first), wave_time,
                                        wave.max_cost, wave.ops});
            }
        }
        r.time = total;
        auto& ctr = trace::counters();
        trace::count(ctr.kernel_launches);
        trace::count(ctr.waves_launched, r.waves);
        trace::count(ctr.work_items, n_items);
        trace::count(ctr.coalesced_transactions,
                     util::ceil_div(r.total_ops.mem_coalesced, params_.coalesce_width));
        trace::count(ctr.strided_transactions, r.total_ops.mem_strided);
        return r;
    }

private:
    DeviceParams params_;
    std::vector<WaveTrace>* wave_trace_ = nullptr;
    util::ThreadPool* pool_ = nullptr;
    // Per-block charge slots, reused across launches so steady-state
    // execution allocates nothing. At most waves + 8 × participants slots:
    // a launch of many waves has one block per wave.
    std::vector<BlockCharges<double>> blocks_;
};

}  // namespace hpu::sim
