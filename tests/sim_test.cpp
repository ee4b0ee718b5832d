#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/buffer.hpp"
#include "sim/cpu_unit.hpp"
#include "sim/device.hpp"
#include "sim/hpu.hpp"
#include "sim/memory_model.hpp"
#include "trace/counters.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace hpu::sim {
namespace {

DeviceParams small_device(std::uint64_t g = 4, double gamma = 0.5) {
    DeviceParams d;
    d.g = g;
    d.gamma = gamma;
    return d;
}

TEST(Params, ValidationRejectsNonsense) {
    DeviceParams d;
    d.g = 0;
    EXPECT_THROW(d.validate(), util::HpuError);
    d = DeviceParams{};
    d.gamma = 0.0;
    EXPECT_THROW(d.validate(), util::HpuError);
    d = DeviceParams{};
    d.gamma = 2.0;
    EXPECT_THROW(d.validate(), util::HpuError);
    CpuParams c;
    c.p = 0;
    EXPECT_THROW(c.validate(), util::HpuError);
}

TEST(Link, AffineTransferCost) {
    LinkParams l;
    l.lambda = 100.0;
    l.delta = 2.0;
    EXPECT_DOUBLE_EQ(l.transfer_time(0), 100.0);
    EXPECT_DOUBLE_EQ(l.transfer_time(50), 200.0);
    // Affinity: t(a+b) = t(a) + t(b) - lambda.
    EXPECT_DOUBLE_EQ(l.transfer_time(30) + l.transfer_time(20) - l.lambda,
                     l.transfer_time(50));
}

TEST(OpCounter, PricingPerUnit) {
    OpCounter c;
    c.charge_compute(10);
    c.charge_mem(6, Pattern::kCoalesced);
    c.charge_mem(2, Pattern::kStrided);
    EXPECT_EQ(c.cpu_ops(), 18u);
    EXPECT_DOUBLE_EQ(c.gpu_ops(16.0), 10 + 6 + 2 * 16.0);
    OpCounter d;
    d.charge_compute(1);
    c += d;
    EXPECT_EQ(c.compute, 11u);
}

TEST(Device, SingleItemTimeIsOpsOverGamma) {
    Device dev(small_device(4, 0.25));
    const auto r = dev.launch(1, [](WorkItem& wi) { wi.charge_compute(100); });
    EXPECT_DOUBLE_EQ(r.time, 100 / 0.25);
    EXPECT_EQ(r.waves, 1u);
}

TEST(Device, WaveCountIsCeilItemsOverG) {
    Device dev(small_device(4, 1.0));
    const auto r = dev.launch(10, [](WorkItem& wi) { wi.charge_compute(8); });
    EXPECT_EQ(r.waves, 3u);  // ceil(10/4)
    EXPECT_DOUBLE_EQ(r.time, 3 * 8.0);
}

TEST(Device, WaveTimeIsMaxItemInWave) {
    Device dev(small_device(4, 1.0));
    // Items 0..3 in wave 0 (max cost 4), items 4..7 in wave 1 (max cost 8).
    const auto r = dev.launch(8, [](WorkItem& wi) {
        wi.charge_compute(wi.global_id() + 1);
    });
    EXPECT_DOUBLE_EQ(r.time, 4.0 + 8.0);
    EXPECT_DOUBLE_EQ(r.max_item_ops, 8.0);
}

TEST(Device, StridedPenaltyApplies) {
    DeviceParams p = small_device(1, 1.0);
    p.strided_penalty = 16.0;
    Device dev(p);
    const auto strided =
        dev.launch(1, [](WorkItem& wi) { wi.charge_mem(10, Pattern::kStrided); });
    const auto coalesced =
        dev.launch(1, [](WorkItem& wi) { wi.charge_mem(10, Pattern::kCoalesced); });
    EXPECT_DOUBLE_EQ(strided.time, 16.0 * coalesced.time);
}

TEST(Device, LaunchOverheadAdds) {
    DeviceParams p = small_device(4, 1.0);
    p.launch_overhead = 7.0;
    Device dev(p);
    const auto r = dev.launch(1, [](WorkItem& wi) { wi.charge_compute(3); });
    EXPECT_DOUBLE_EQ(r.time, 10.0);
}

TEST(Device, UniformLaunchTimeMatchesExecution) {
    Device dev(small_device(8, 0.125));
    const auto r = dev.launch(20, [](WorkItem& wi) { wi.charge_compute(5); });
    EXPECT_DOUBLE_EQ(r.time, dev.params().launch_time(
                                 static_cast<double>(util::ceil_div(20, dev.params().g)), 5.0));
}

TEST(Device, GlobalIdsCoverRange) {
    Device dev(small_device(3, 1.0));
    std::vector<int> seen(10, 0);
    dev.launch(10, [&](WorkItem& wi) {
        EXPECT_EQ(wi.global_size(), 10u);
        seen[wi.global_id()]++;
    });
    for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Device, RejectsEmptyLaunch) {
    Device dev(small_device());
    EXPECT_THROW(dev.launch(0, [](WorkItem&) {}), util::HpuError);
}

TEST(Device, KernelExceptionPropagates) {
    // Inline: the throw stops the launch, no further items run.
    Device dev(small_device());
    std::uint64_t ran = 0;
    EXPECT_THROW(dev.launch(4,
                            [&ran](WorkItem& wi) {
                                ++ran;
                                if (wi.global_id() == 2) throw std::runtime_error("kernel fault");
                            }),
                 std::runtime_error);
    EXPECT_EQ(ran, 3u);

    // Pooled, 16 waves in one batch, the throw in the last wave: it still
    // propagates, and the failed launch records nothing — no process
    // counters, no wave traces.
    util::ThreadPool pool(3);
    Device pooled(small_device(), &pool);
    std::vector<WaveTrace> waves;
    pooled.set_wave_trace(&waves);
    const trace::CounterSnapshot before = trace::counters().snapshot();
    EXPECT_THROW(pooled.launch(64,
                               [](WorkItem& wi) {
                                   wi.charge_compute(1);
                                   if (wi.global_id() == 61) {
                                       throw std::runtime_error("late-wave fault");
                                   }
                               }),
                 std::runtime_error);
    const trace::CounterSnapshot delta = trace::counters().snapshot() - before;
    EXPECT_EQ(delta.kernel_launches, 0u);
    EXPECT_EQ(delta.waves_launched, 0u);
    EXPECT_EQ(delta.work_items, 0u);
    EXPECT_EQ(delta.coalesced_transactions, 0u);
    EXPECT_EQ(delta.strided_transactions, 0u);
    EXPECT_TRUE(waves.empty());

    // The device stays usable: the next launch matches an inline one.
    auto kernel = [](WorkItem& wi) { wi.charge_compute(1 + wi.global_id() % 7); };
    const LaunchResult rp = pooled.launch(64, kernel);
    const LaunchResult rs = Device(small_device()).launch(64, kernel);
    EXPECT_EQ(rp.time, rs.time);
    EXPECT_EQ(rp.total_ops.compute, rs.total_ops.compute);
    EXPECT_EQ(waves.size(), 16u);
}

TEST(Device, GroupKernelsFoldLikeItemKernels) {
    // Charges that differ from item to item, so a misplaced or dropped item
    // changes a wave's sum or its slowest item.
    auto charge = [](std::uint64_t id, OpCounter& ops) {
        ops.charge_compute(1 + id % 7);
        ops.charge_mem(id % 5, id % 3 == 0 ? Pattern::kStrided : Pattern::kCoalesced);
    };
    util::ThreadPool pool(3);
    for (const std::uint64_t g : {5u, 40u, 64u}) {
        // Widths around g and around the charge block sizes (pooled:
        // ceil(n / 32) items, inline: ceil(n / 8), neither above g).
        for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{15}, std::uint64_t{16},
                                      std::uint64_t{17}, g - 1, g, g + 1, 2 * g + 1,
                                      std::uint64_t{31}, std::uint64_t{32}, std::uint64_t{33},
                                      std::uint64_t{513}, std::uint64_t{1000}}) {
            for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
                Device items(small_device(g), p), groups(small_device(g), p);
                std::vector<WaveTrace> item_waves, group_waves;
                items.set_wave_trace(&item_waves);
                groups.set_wave_trace(&group_waves);
                const LaunchResult a =
                    items.launch(n, [&](WorkItem& wi) { charge(wi.global_id(), wi.ops()); });
                std::vector<int> seen(n, 0);  // each group writes only its own items
                std::atomic<bool> misplaced{false};
                const LaunchResult b = groups.launch(n, [&](WorkGroup& grp) {
                    const std::uint64_t first = grp.first_id(), size = grp.size();
                    if (size == 0 || size > kGroupItems || first / g != (first + size - 1) / g) {
                        misplaced = true;  // empty, oversized, or straddling a wave
                    }
                    for (std::uint64_t i = 0; i < size; ++i) {
                        ++seen[first + i];
                        charge(first + i, grp.ops()[i]);
                    }
                });
                const std::string at = "g " + std::to_string(g) + " n " + std::to_string(n) +
                                       (p != nullptr ? " pooled" : " inline");
                EXPECT_FALSE(misplaced) << at;
                EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<long>(n)) << at;
                EXPECT_EQ(a.time, b.time) << at;
                EXPECT_EQ(a.items, b.items) << at;
                EXPECT_EQ(a.waves, b.waves) << at;
                EXPECT_EQ(a.max_item_ops, b.max_item_ops) << at;
                EXPECT_EQ(a.total_ops.compute, b.total_ops.compute) << at;
                EXPECT_EQ(a.total_ops.mem_coalesced, b.total_ops.mem_coalesced) << at;
                EXPECT_EQ(a.total_ops.mem_strided, b.total_ops.mem_strided) << at;
                ASSERT_EQ(item_waves.size(), group_waves.size()) << at;
                for (std::size_t w = 0; w < item_waves.size(); ++w) {
                    EXPECT_EQ(item_waves[w].first_item, group_waves[w].first_item) << at;
                    EXPECT_EQ(item_waves[w].items, group_waves[w].items) << at;
                    EXPECT_EQ(item_waves[w].duration, group_waves[w].duration) << at;
                    EXPECT_EQ(item_waves[w].max_item_ops, group_waves[w].max_item_ops) << at;
                    EXPECT_EQ(item_waves[w].ops.compute, group_waves[w].ops.compute) << at;
                    EXPECT_EQ(item_waves[w].ops.mem_coalesced, group_waves[w].ops.mem_coalesced)
                        << at;
                    EXPECT_EQ(item_waves[w].ops.mem_strided, group_waves[w].ops.mem_strided)
                        << at;
                }
            }
        }
    }
}

TEST(Buffer, ResidencyIsEnforced) {
    std::vector<int> host(8);
    DeviceBuffer<int> buf{std::span(host)};
    EXPECT_THROW(buf.device_region(0, 4), util::HpuError);   // not copied yet
    EXPECT_THROW(buf.stream_to_host(0, 4), util::HpuError);  // nothing on device
    host[0] = 42;
    buf.stream_to_device(0, 4);
    EXPECT_EQ(buf.device_region(0, 4)[0], 42);
    // [4, 8) has not been copied in.
    EXPECT_THROW(buf.device_region(2, 4), util::HpuError);
    EXPECT_THROW(buf.stream_to_host(4, 4), util::HpuError);
}

TEST(Buffer, BorrowsTheCallersArrayAndKeepsDeviceWritesOutOfIt) {
    std::vector<int> host = {1, 2, 3, 4, 5, 6, 7, 8};
    DeviceBuffer<int> buf{std::span(host)};
    EXPECT_EQ(buf.size(), host.size());
    buf.stream_to_device(0, 4);
    buf.stream_to_device(4, 4);
    host[2] = -3;  // a host write after the copy never reaches the device
    EXPECT_EQ(buf.device_region(0, 4)[2], 3);

    // Each device write reaches the caller's array with its own chunk's
    // stream_to_host, and not before; the readback overwrites the array.
    buf.device_region(0, 4)[0] = 100;
    buf.device_region(4, 4)[3] = 800;
    EXPECT_EQ(host[0], 1);
    EXPECT_EQ(host[7], 8);
    buf.stream_to_host(4, 4);
    EXPECT_EQ(host[0], 1);
    EXPECT_EQ(host[7], 800);
    buf.stream_to_host(0, 4);
    EXPECT_EQ(host, (std::vector<int>{100, 2, 3, 4, 5, 6, 7, 800}));
}

TEST(Buffer, StreamedRangeChecksDoNotOverflow) {
    std::vector<int> host(8);
    DeviceBuffer<int> buf{std::span(host)};
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(buf.stream_to_device(6, 3), util::HpuError);
    EXPECT_THROW(buf.stream_to_device(9, 0), util::HpuError);
    // offset + count wraps around std::size_t; the checks must not.
    EXPECT_THROW(buf.stream_to_device(4, kMax), util::HpuError);
    buf.stream_to_device(0, 8);
    EXPECT_THROW(buf.device_region(6, 3), util::HpuError);
    EXPECT_THROW(buf.device_region(9, 0), util::HpuError);
    EXPECT_THROW(buf.device_region(4, kMax), util::HpuError);
    EXPECT_THROW(buf.stream_to_host(6, 3), util::HpuError);
    EXPECT_THROW(buf.stream_to_host(9, 0), util::HpuError);
    EXPECT_THROW(buf.stream_to_host(4, kMax), util::HpuError);
    // The last word and the empty range at the end are in range.
    EXPECT_NO_THROW(buf.device_region(7, 1));
    EXPECT_NO_THROW(buf.stream_to_host(8, 0));
}

/// CpuParams::level_time of `tasks` uniform tasks of `ops_each` ops with a
/// working set of `ws` bytes: ceil(tasks / p) rounds, times the contention
/// factor.
double cpu_level_price(const CpuParams& p, std::uint64_t tasks, double ops_each,
                       std::uint64_t ws = 0) {
    return p.level_time(static_cast<double>(util::ceil_div(tasks, p.p)), ops_each,
                        p.contention_factor(tasks, ws));
}

TEST(CpuUnit, UniformLevelMatchesClosedForm) {
    CpuUnit cpu(CpuParams{.p = 4});
    EXPECT_DOUBLE_EQ(cpu_level_price(cpu.params(), 10, 5.0), 15.0);  // ceil(10/4)*5
}

TEST(CpuUnit, RunLevelMeasuresMakespan) {
    CpuUnit cpu(CpuParams{.p = 2});
    // Tasks of cost i+1: costs 1..5, greedy on 2 cores.
    const auto r = cpu.run_level(5, [](std::uint64_t i, OpCounter& ops) {
        ops.charge_compute(i + 1);
    });
    EXPECT_EQ(r.tasks, 5u);
    EXPECT_EQ(r.max_task_ops, 5u);
    // greedy: 1→c0, 2→c1, 3→c0(1+3=4), 4→c1(2+4=6), 5→c0(4+5=9) → 9.
    EXPECT_DOUBLE_EQ(r.time, 9.0);
}

TEST(CpuUnit, ContentionInflatesLargeWorkingSets) {
    CpuParams p{.p = 4, .llc_bytes = 1 << 20, .contention = 0.1};
    CpuUnit cpu(p);
    const double base = cpu_level_price(cpu.params(), 8, 100.0, 1 << 20);
    const double hot = cpu_level_price(cpu.params(), 8, 100.0, 4u << 20);  // 4x LLC
    EXPECT_DOUBLE_EQ(base, 200.0);
    EXPECT_DOUBLE_EQ(hot, 200.0 * (1.0 + 0.1 * 2.0));  // log2(4) = 2
    // Single task → no contention regardless of working set.
    EXPECT_DOUBLE_EQ(cpu_level_price(cpu.params(), 1, 100.0, 64u << 20), 100.0);
}

TEST(CpuUnit, ContentionDisabledByDefaultPlatforms) {
    CpuUnit cpu(CpuParams{});
    EXPECT_DOUBLE_EQ(cpu.params().contention_factor(100, 1ull << 40), 1.0);
}

TEST(MemoryModel, FullyCoalescedWave) {
    // 4 items, each accesses addresses i, i+4, i+8 — step k touches the
    // contiguous segment [4k, 4k+4), one transaction per step at width 4.
    std::vector<AccessTrace> items(4);
    for (std::uint64_t i = 0; i < 4; ++i) items[i] = {i, i + 4, i + 8};
    const auto r = analyze_wave(items, 4);
    EXPECT_EQ(r.steps, 3u);
    EXPECT_EQ(r.accesses, 12u);
    EXPECT_EQ(r.transactions, 3u);
    EXPECT_DOUBLE_EQ(r.expansion, 1.0);
    EXPECT_DOUBLE_EQ(effective_cost_per_word(r), 1.0);
}

TEST(MemoryModel, ScatteredWave) {
    // 4 items each touching their own distant segment at every step.
    std::vector<AccessTrace> items(4);
    for (std::uint64_t i = 0; i < 4; ++i) items[i] = {i * 1000, i * 1000 + 1};
    const auto r = analyze_wave(items, 4);
    EXPECT_EQ(r.transactions, 8u);  // 4 segments per step × 2 steps
    EXPECT_DOUBLE_EQ(r.expansion, 8.0 * 4 / 8.0);
    EXPECT_GT(effective_cost_per_word(r), 1.0);
}

TEST(MemoryModel, RaggedTracesHandled) {
    std::vector<AccessTrace> items = {{0, 1, 2}, {3}};
    const auto r = analyze_wave(items, 4);
    EXPECT_EQ(r.steps, 3u);
    EXPECT_EQ(r.accesses, 4u);
    EXPECT_GE(r.transactions, 3u);
}

TEST(MemoryModel, MergesortPermutationIsCheaper) {
    // The §6.3 insight, verified by trace analysis: 8 work-items each
    // walking their own 8-element slice (strided) vs the permuted layout
    // where item j touches j, j+8, j+16, ... (coalesced).
    const std::uint64_t W = 8, L = 8, width = 8;
    std::vector<AccessTrace> strided(W), permuted(W);
    for (std::uint64_t j = 0; j < W; ++j) {
        for (std::uint64_t k = 0; k < L; ++k) {
            strided[j].push_back(j * L + k);
            permuted[j].push_back(k * W + j);
        }
    }
    const auto rs = analyze_wave(strided, width);
    const auto rp = analyze_wave(permuted, width);
    EXPECT_DOUBLE_EQ(rp.expansion, 1.0);
    EXPECT_DOUBLE_EQ(rs.expansion, static_cast<double>(width));
    EXPECT_GT(effective_cost_per_word(rs), effective_cost_per_word(rp));
}

TEST(Hpu, BundleWiring) {
    HpuParams hp;
    hp.cpu.p = 2;
    hp.gpu.g = 16;
    hp.gpu.gamma = 0.5;
    hp.link.lambda = 5;
    hp.link.delta = 1;
    Hpu h(hp);
    EXPECT_DOUBLE_EQ(h.params().link.transfer_time(10), 15.0);
    EXPECT_DOUBLE_EQ(h.params().gpu_power(), 8.0);
    const LaunchResult r = h.gpu().launch(1, [](WorkItem& wi) { wi.charge_compute(1); });
    EXPECT_DOUBLE_EQ(r.time, h.params().gpu.launch_time(1.0, 1.0));
}

}  // namespace
}  // namespace hpu::sim
