// Serializer of a RegistrySnapshot: Prometheus text exposition format
// (scrape-ready; linted in CI by tools/check_prom.py). Log2Histogram
// bucket i holds values <= 2^i - 1, which is exactly a cumulative
// Prometheus bucket with le="2^i - 1"; buckets above the highest non-empty
// one are elided (the +Inf bucket always closes the series).
#pragma once

#include <iosfwd>
#include <string>

#include "metrics/registry.hpp"

namespace hpu::metrics {

/// Prometheus text format, version 0.0.4: # HELP / # TYPE comment pairs,
/// then the samples. Histograms expand to _bucket{le="..."} / _sum /
/// _count series with cumulative counts.
void export_prometheus(const RegistrySnapshot& snap, std::ostream& os);

bool write_prometheus_file(const RegistrySnapshot& snap, const std::string& path);

}  // namespace hpu::metrics
