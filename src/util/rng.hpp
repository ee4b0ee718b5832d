// Deterministic pseudo-random input generation for tests, examples and
// benches. All experiments in the paper draw inputs uniformly at random
// (mergesort keys in [0, 2n)); we centralize that here so every run is
// reproducible from a seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace hpu::util {

/// Thin wrapper over a 64-bit Mersenne Twister with convenience fills.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : eng_(seed) {}

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(eng_);
    }

    /// Uniform double in [lo, hi).
    double uniform_real(double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(eng_);
    }

    /// Vector of n ints uniform in [lo, hi] — the paper's mergesort inputs
    /// use lo=0, hi=2n-1.
    std::vector<std::int32_t> int_vector(std::size_t n, std::int64_t lo, std::int64_t hi) {
        std::vector<std::int32_t> v(n);
        std::uniform_int_distribution<std::int64_t> d(lo, hi);
        for (auto& x : v) x = static_cast<std::int32_t>(d(eng_));
        return v;
    }

    std::mt19937_64& engine() noexcept { return eng_; }

private:
    std::mt19937_64 eng_;
};

}  // namespace hpu::util
