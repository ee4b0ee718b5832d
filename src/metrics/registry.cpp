#include "metrics/registry.hpp"

namespace hpu::metrics {

void publish_pool(RegistrySnapshot& snap, const util::PoolTelemetry& pool) {
    snap.gauges.push_back({"hpu_pool_workers", "worker threads of the functional pool",
                           static_cast<double>(pool.workers)});
    snap.counters.push_back(
        {"hpu_pool_window_ns_total", "wall ns covered by the telemetry window",
         pool.window_ns});
    snap.counters.push_back({"hpu_pool_batches_total",
                             "parallel_for submissions in the window", pool.batches});
    snap.counters.push_back({"hpu_pool_worker_busy_ns_total",
                             "summed wall ns workers spent executing claimed chunks",
                             pool.worker_busy_ns()});
    snap.counters.push_back({"hpu_pool_worker_idle_ns_total",
                             "summed wall ns workers spent waiting for work",
                             pool.worker_idle_ns()});
    std::uint64_t chunks = 0;
    for (const auto& w : pool.per_worker) chunks += w.chunks;
    snap.counters.push_back(
        {"hpu_pool_chunks_claimed_total",
         "chunks claimed and executed by all participants (caller included)", chunks});
    const double denom =
        static_cast<double>(pool.workers) * static_cast<double>(pool.window_ns);
    snap.gauges.push_back(
        {"hpu_pool_worker_utilization",
         "worker busy ns / (workers x window ns)",
         denom > 0.0 ? static_cast<double>(pool.worker_busy_ns()) / denom : 0.0});
    snap.gauges.push_back({"hpu_pool_accounted_share",
                           "(worker busy + idle) / (workers x window); the gap is pool "
                           "overhead",
                           pool.accounted_share()});
    snap.histograms.push_back({"hpu_pool_claim_size_indices",
                               "indices per executed chunk claim", pool.claim_size});
    snap.histograms.push_back({"hpu_pool_submit_latency_ns",
                               "batch submission to a participant's first claim",
                               pool.submit_latency_ns});
}

void publish_counters(RegistrySnapshot& snap, const trace::CounterSnapshot& sim) {
    const struct {
        const char* name;
        const char* help;
        std::uint64_t value;
    } rows[] = {
        {"hpu_sim_kernel_launches_total", "Device::launch calls", sim.kernel_launches},
        {"hpu_sim_waves_launched_total", "SIMT waves across all launches",
         sim.waves_launched},
        {"hpu_sim_work_items_total", "work-items executed on the device", sim.work_items},
        {"hpu_sim_cpu_levels_total", "CpuUnit::run_level calls", sim.cpu_levels},
        {"hpu_sim_transfers_total", "DeviceBuffer copies (either way)", sim.transfers},
        {"hpu_sim_words_transferred_total", "words moved across the link",
         sim.words_transferred},
        {"hpu_sim_coalesced_transactions_total", "memory transactions, coalesced",
         sim.coalesced_transactions},
        {"hpu_sim_strided_transactions_total", "memory transactions, strided",
         sim.strided_transactions},
        {"hpu_sim_validation_reexecutions_total", "schedule-independence re-runs",
         sim.validation_reexecutions},
    };
    for (const auto& r : rows) snap.counters.push_back({r.name, r.help, r.value});
}

}  // namespace hpu::metrics
