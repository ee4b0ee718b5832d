// hpu::metrics — the wall-clock metrics layer (DESIGN.md §11).
//
// A RegistrySnapshot is plain data: named counters, gauges and histograms
// at one instant. There is no live registry; an export is built from
// snapshots — publish_pool adds a ThreadPool telemetry snapshot (wall-clock
// side), publish_counters a trace::counters() snapshot (virtual-clock
// side), obs::publish_obs the watchdog's findings — so one scrape covers
// both clocks. metrics/export.hpp serializes a snapshot as Prometheus text
// format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/counters.hpp"
#include "util/histogram.hpp"
#include "util/thread_pool.hpp"

namespace hpu::metrics {

/// Plain-data metrics at one instant, ready to export.
struct RegistrySnapshot {
    struct CounterValue {
        std::string name;
        std::string help;
        std::uint64_t value = 0;
    };
    struct GaugeValue {
        std::string name;
        std::string help;
        double value = 0.0;
    };
    struct HistogramValue {
        std::string name;
        std::string help;
        util::HistogramSnapshot hist;
    };
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
};

/// Appends a ThreadPool telemetry snapshot to `snap` under the hpu_pool_*
/// namespace: busy/idle/window counters (ns), workers / utilization /
/// accounted-share gauges, and the claim-size and submit-to-start-latency
/// histograms.
void publish_pool(RegistrySnapshot& snap, const util::PoolTelemetry& pool);

/// Appends the virtual-clock counter registry (a trace::counters()
/// snapshot) to `snap` under the hpu_sim_* namespace, so one scrape covers
/// both clocks.
void publish_counters(RegistrySnapshot& snap, const trace::CounterSnapshot& sim);

}  // namespace hpu::metrics
