// Host/device buffer with explicit transfers, mirroring the OpenCL memory
// model of §3.1: the host cannot see device writes (and vice versa) until an
// explicit transfer. The buffer borrows the caller's host array and owns a
// separate device copy, so a stale-copy bug in a scheduler surfaces as a
// wrong result in tests rather than silently working: a lane that skips its
// readback leaves the caller's array as it was.
//
// Data moves only as chunks on the link's schedule (stream_to_device,
// stream_to_host), and kernels reach it only through device_region at a
// virtual tick. Each of these can additionally be recorded into an external
// BufferEvent log (set_trace); the hpu::analysis residency lint replays the
// log to flag redundant transfers and kernels touching chunks still in
// flight.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/params.hpp"
#include "trace/counters.hpp"
#include "util/check.hpp"

namespace hpu::sim {

/// What happened to a DeviceBuffer, for the residency lint.
enum class BufferOp : std::uint8_t {
    kDeviceMut,     ///< device_region() — a kernel's mutable view of a range
    kCopyToDevice,  ///< host→device chunk transfer
    kCopyToHost,    ///< device→host chunk transfer
};

/// One entry of a buffer's access/transfer log. Validity flags are the
/// state *before* the operation, which is what the lint rules condition on.
///
/// Chunk copies record the link schedule: start = when the link picked the
/// chunk up, ready = when it arrived. Accesses record the virtual tick the
/// kernel touches the range at in both fields, so the residency lint can
/// flag reads of chunks that have not arrived yet (kInFlightRead).
struct BufferEvent {
    BufferOp op;
    bool host_valid_before = true;
    bool device_valid_before = false;
    std::size_t offset = 0;  ///< copied/accessed range
    std::size_t count = 0;
    std::size_t size = 0;  ///< buffer size, so the lint can tell full from partial
    Ticks start = 0.0;  ///< link pickup / access tick
    Ticks ready = 0.0;  ///< arrival / access tick
};

template <typename T>
class DeviceBuffer {
public:
    /// Borrows `host`, which must outlive the buffer, and allocates an
    /// uninitialised device copy of the same size.
    explicit DeviceBuffer(std::span<T> host)
        : host_(host), device_(std::make_unique_for_overwrite<T[]>(host.size())) {}

    std::size_t size() const noexcept { return host_.size(); }

    /// Attach (or detach, with nullptr) an event log. The buffer does not
    /// own the sink; it must outlive the buffer's use.
    void set_trace(std::vector<BufferEvent>* sink) noexcept { trace_ = sink; }

    /// Host→device copy of chunk [offset, offset+count) as the link
    /// scheduled it: the words move now (the clock is virtual), but the
    /// event log keeps the link schedule [start, ready) so the residency
    /// lint can verify that no kernel touches the chunk before it arrives.
    /// The device side becomes valid once the streamed chunks cover the
    /// whole buffer.
    void stream_to_device(std::size_t offset, std::size_t count, Ticks start, Ticks ready) {
        record(BufferOp::kCopyToDevice, offset, count, start, ready);
        HPU_CHECK(offset <= size() && count <= size() - offset, "streamed chunk out of range");
        std::copy_n(host_.begin() + static_cast<std::ptrdiff_t>(offset), count,
                    device_.get() + offset);
        if (!device_valid_ && cover(device_streamed_, offset, count)) {
            device_valid_ = true;
            device_streamed_.clear();
        }
    }

    /// Device→host chunk copy (results retrieval), mirrored.
    void stream_to_host(std::size_t offset, std::size_t count, Ticks start, Ticks ready) {
        record(BufferOp::kCopyToHost, offset, count, start, ready);
        HPU_CHECK(offset <= size() && count <= size() - offset, "streamed chunk out of range");
        HPU_CHECK(device_valid_ || covered(device_streamed_, offset, count),
                  "streaming back a chunk that was never written on the device");
        std::copy_n(device_.get() + offset, count,
                    host_.begin() + static_cast<std::ptrdiff_t>(offset));
        if (!host_valid_ && cover(host_streamed_, offset, count)) {
            host_valid_ = true;
            host_streamed_.clear();
        }
    }

    /// Device-side view of [offset, offset+count) acquired at virtual tick
    /// `at`, for kernel bodies. The range must be covered by prior streamed
    /// copies; whether it had *arrived* by `at` is the residency lint's job
    /// (kInFlightRead), not a crash.
    std::span<T> device_region(std::size_t offset, std::size_t count, Ticks at) {
        record(BufferOp::kDeviceMut, offset, count, at, at);
        HPU_CHECK(offset <= size() && count <= size() - offset, "device region out of range");
        HPU_CHECK(device_valid_ || covered(device_streamed_, offset, count),
                  "kernel touched a chunk that was never copied to the device");
        host_valid_ = false;
        host_streamed_.clear();
        return {device_.get() + offset, count};
    }

private:
    using Interval = std::pair<std::size_t, std::size_t>;  ///< [first, last)

    void record(BufferOp op, std::size_t offset, std::size_t count, Ticks start,
                Ticks ready) const {
        if (op == BufferOp::kCopyToDevice || op == BufferOp::kCopyToHost) {
            auto& ctr = trace::counters();
            trace::count(ctr.transfers);
            trace::count(ctr.words_transferred, count);
        }
        if (trace_ != nullptr) {
            trace_->push_back(
                {op, host_valid_, device_valid_, offset, count, size(), start, ready});
        }
    }

    /// Merges [offset, offset+count) into the streamed-coverage set;
    /// returns true once the set covers the whole buffer.
    bool cover(std::vector<Interval>& set, std::size_t offset, std::size_t count) const {
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
    static bool covered(const std::vector<Interval>& set, std::size_t offset,
                        std::size_t count) {
        for (const Interval& iv : set) {
            if (iv.first <= offset && offset + count <= iv.second) return true;
        }
        return count == 0;
    }

    std::span<T> host_;
    std::unique_ptr<T[]> device_;
    bool host_valid_ = true;
    bool device_valid_ = false;
    /// Streamed-but-not-yet-complete coverage of each side (empty once the
    /// corresponding validity flag is true).
    std::vector<Interval> device_streamed_;
    std::vector<Interval> host_streamed_;
    std::vector<BufferEvent>* trace_ = nullptr;
};

}  // namespace hpu::sim
