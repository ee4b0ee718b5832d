// Host/device buffer with explicit transfers, mirroring the OpenCL memory
// model of §3.1: the host cannot see device writes (and vice versa) until an
// explicit transfer. The buffer borrows the caller's host array and owns a
// separate device copy, so a stale-copy bug in a scheduler surfaces as a
// wrong result in tests rather than silently working: a lane that skips its
// readback leaves the caller's array as it was.
//
// Data moves only as chunks (stream_to_device, stream_to_host), and kernels
// reach it only through device_region. The buffer checks *what* moves —
// every range in bounds, nothing read back or touched on the device before
// it was copied in — and counts the transfers; *when* each move happens on
// the virtual clock is the schedule's business, which verify::check_plan
// checks (DESIGN.md §7).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "trace/counters.hpp"
#include "util/check.hpp"

namespace hpu::sim {

template <typename T>
class DeviceBuffer {
public:
    /// Borrows `host`, which must outlive the buffer, and allocates an
    /// uninitialised device copy of the same size.
    explicit DeviceBuffer(std::span<T> host)
        : host_(host), device_(std::make_unique_for_overwrite<T[]>(host.size())) {}

    std::size_t size() const noexcept { return host_.size(); }

    /// Host→device copy of chunk [offset, offset+count). The device side
    /// becomes valid once the streamed chunks cover the whole buffer.
    void stream_to_device(std::size_t offset, std::size_t count) {
        count_transfer(count);
        HPU_CHECK(offset <= size() && count <= size() - offset, "streamed chunk out of range");
        std::copy_n(host_.begin() + static_cast<std::ptrdiff_t>(offset), count,
                    device_.get() + offset);
        if (!device_valid_ && cover(offset, count)) {
            device_valid_ = true;
            device_streamed_.clear();
        }
    }

    /// Device→host chunk copy (results retrieval), mirrored.
    void stream_to_host(std::size_t offset, std::size_t count) {
        count_transfer(count);
        HPU_CHECK(offset <= size() && count <= size() - offset, "streamed chunk out of range");
        HPU_CHECK(device_valid_ || covered(offset, count),
                  "streaming back a chunk that was never written on the device");
        std::copy_n(device_.get() + offset, count,
                    host_.begin() + static_cast<std::ptrdiff_t>(offset));
    }

    /// Device-side view of [offset, offset+count), for kernel bodies. The
    /// range must be covered by prior streamed copies.
    std::span<T> device_region(std::size_t offset, std::size_t count) {
        HPU_CHECK(offset <= size() && count <= size() - offset, "device region out of range");
        HPU_CHECK(device_valid_ || covered(offset, count),
                  "kernel touched a chunk that was never copied to the device");
        return {device_.get() + offset, count};
    }

private:
    using Interval = std::pair<std::size_t, std::size_t>;  ///< [first, last)

    static void count_transfer(std::size_t count) {
        auto& ctr = trace::counters();
        trace::count(ctr.transfers);
        trace::count(ctr.words_transferred, count);
    }

    /// Merges [offset, offset+count) into the streamed-coverage set;
    /// returns true once the set covers the whole buffer.
    bool cover(std::size_t offset, std::size_t count) {
        std::vector<Interval>& set = device_streamed_;
        set.emplace_back(offset, offset + count);
        std::sort(set.begin(), set.end());
        std::size_t w = 0;
        for (std::size_t r = 1; r < set.size(); ++r) {
            if (set[r].first <= set[w].second) {
                set[w].second = std::max(set[w].second, set[r].second);
            } else {
                set[++w] = set[r];
            }
        }
        set.resize(w + 1);
        return set.size() == 1 && set.front().first == 0 && set.front().second >= size();
    }

    /// True when [offset, offset+count) lies inside one merged interval.
    bool covered(std::size_t offset, std::size_t count) const {
        for (const Interval& iv : device_streamed_) {
            if (iv.first <= offset && offset + count <= iv.second) return true;
        }
        return count == 0;
    }

    std::span<T> host_;
    std::unique_ptr<T[]> device_;
    bool device_valid_ = false;
    /// Streamed-but-not-yet-complete coverage of the device copy (empty
    /// once device_valid_ is true).
    std::vector<Interval> device_streamed_;
};

}  // namespace hpu::sim
