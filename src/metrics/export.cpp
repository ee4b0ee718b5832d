#include "metrics/export.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>

namespace hpu::metrics {

namespace {

/// Escapes a string for a Prometheus HELP line (backslash, quote,
/// newline).
std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

void write_number(std::ostream& os, double v) {
    if (std::isnan(v)) {
        os << "NaN";
    } else if (std::isinf(v)) {
        os << (v > 0 ? "+Inf" : "-Inf");
    } else {
        const auto prec = os.precision(std::numeric_limits<double>::max_digits10);
        os << v;
        os.precision(prec);
    }
}

/// Index of the last non-empty bucket (0 when all are empty), so the
/// exposition stops after the data instead of emitting 64 series.
std::size_t last_used_bucket(const util::HistogramSnapshot& h) {
    std::size_t last = 0;
    for (std::size_t i = 0; i < util::HistogramSnapshot::kBuckets; ++i) {
        if (h.buckets[i] != 0) last = i;
    }
    return last;
}

/// le bound of bucket i: bucket i holds values <= 2^i - 1 exactly.
std::uint64_t le_bound(std::size_t i) {
    return i >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
}

void prom_histogram(std::ostream& os, const RegistrySnapshot::HistogramValue& h) {
    os << "# HELP " << h.name << " " << escape(h.help) << "\n";
    os << "# TYPE " << h.name << " histogram\n";
    const std::size_t last = last_used_bucket(h.hist);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= last; ++i) {
        cum += h.hist.buckets[i];
        os << h.name << "_bucket{le=\"" << le_bound(i) << "\"} " << cum << "\n";
    }
    os << h.name << "_bucket{le=\"+Inf\"} " << h.hist.count << "\n";
    os << h.name << "_sum " << h.hist.sum << "\n";
    os << h.name << "_count " << h.hist.count << "\n";
}

}  // namespace

void export_prometheus(const RegistrySnapshot& snap, std::ostream& os) {
    for (const auto& c : snap.counters) {
        os << "# HELP " << c.name << " " << escape(c.help) << "\n";
        os << "# TYPE " << c.name << " counter\n";
        os << c.name << " " << c.value << "\n";
    }
    for (const auto& g : snap.gauges) {
        os << "# HELP " << g.name << " " << escape(g.help) << "\n";
        os << "# TYPE " << g.name << " gauge\n";
        os << g.name << " ";
        write_number(os, g.value);
        os << "\n";
    }
    for (const auto& h : snap.histograms) prom_histogram(os, h);
}

bool write_prometheus_file(const RegistrySnapshot& snap, const std::string& path) {
    std::ofstream f(path);
    if (!f) return false;
    export_prometheus(snap, f);
    return static_cast<bool>(f);
}

}  // namespace hpu::metrics
