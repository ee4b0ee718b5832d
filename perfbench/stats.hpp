// Summary statistics of the hpu benchmark: the sample quantiles, the tail
// percentile choice, the geometric mean and the failure ratio. Kept apart
// from hpubench.cpp so perfbench_test.cpp can pin each rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Sample quantile q ∈ [0, 1] with linear interpolation between closest
/// ranks (the (n − 1)·q rule of numpy's default). Throws on no samples.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::invalid_argument("quantile of no samples");
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Nearest-rank quantile: the sample at 1-based rank ceil(q·n). Exactly
/// n − ceil(q·n) samples lie beyond it. Throws on no samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
    // The epsilon keeps q = 1 − k/n on rank n − k despite rounding in q·n.
    const double r = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

inline double rank_quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::invalid_argument("quantile of no samples");
    std::sort(v.begin(), v.end());
    return v[nearest_rank(v.size(), q) - 1];
}

/// Samples beyond the nearest-rank quantile q of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
    return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// The tail percentile reported as job_s_p90: the highest q ≤ 0.9 that
/// leaves at least kTailSamples samples beyond it, q = 1 − 10/n, taken by
/// nearest rank. Below 20 samples no percentile above the median
/// qualifies; the choice then floors at the median, so the tail never reads
/// below the p50 it sits beside.
inline double tail_quantile(std::size_t n) {
    if (n == 0) return 0.5;
    const double q = 1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
    return std::clamp(q, 0.5, 0.9);
}

/// Geometric mean of positive values; throws on an empty or non-positive set.
inline double geomean(const std::vector<double>& v) {
    if (v.empty()) throw std::invalid_argument("geometric mean of no values");
    double log_sum = 0.0;
    for (const double x : v) {
        if (!(x > 0.0)) throw std::invalid_argument("geometric mean needs positive values");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Failed jobs ÷ attempted jobs; a run that attempted nothing counts as
/// wholly failed, so it can never pass for a clean one.
inline double failed_ratio(std::uint64_t failed, std::uint64_t attempted) {
    if (attempted == 0) return 1.0;
    return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
