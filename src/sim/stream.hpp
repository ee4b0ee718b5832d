// Asynchronous transfer stream over the CPU<->GPU link (DESIGN.md §9).
//
// The link is a single full-duplex-free resource: one transfer at a time,
// each priced λ + δ·w (§3.1). A Stream is the link's FIFO queue on the
// virtual clock: pushing a chunk schedules it at
//
//   start = max(ready, link_free),   end = start + λ + δ·w
//
// where `ready` is the tick the producer made the chunk available (0 for
// eagerly enqueued inputs, the kernel-completion tick for results) and
// `link_free` is the end of the previously queued chunk. The returned
// Event carries the completion tick; consumers sequence against it with
// Event::wait, exactly how the pipelined hybrid overlaps chunk transfers
// with wave execution.
//
// Every chunk stays in chunks(), so link occupancy is inspectable after
// the run; trace spans stay the plan walker's job (the tracer is off the
// critical path and the Stream *is* critical-path arithmetic).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/params.hpp"

namespace hpu::sim {

/// Completion marker of an asynchronous link operation: the virtual tick
/// at which the transferred words are usable on the destination side.
struct StreamEvent {
    Ticks when = 0.0;

    /// True once the operation has completed at virtual tick `now`.
    bool done(Ticks now) const noexcept { return when <= now; }
    /// The tick a consumer arriving at `now` can proceed: max(now, when).
    Ticks wait(Ticks now) const noexcept { return std::max(now, when); }
};

/// One chunk transfer as the link scheduled it.
struct StreamChunk {
    bool to_device = true;
    std::uint64_t words = 0;
    std::size_t offset = 0;  ///< first word of the chunk in its buffer
    Ticks ready = 0.0;       ///< when the producer enqueued it
    Ticks start = 0.0;       ///< when the link picked it up
    Ticks end = 0.0;         ///< start + λ + δ·words

    Ticks duration() const noexcept { return end - start; }
    /// Link idle time in front of this chunk (start − ready when the link
    /// was the bottleneck is 0; positive when the chunk waited on the link
    /// — wait = start − ready — or the link waited on the producer).
    Ticks queue_delay() const noexcept { return start - ready; }
};

/// FIFO transfer queue of the link on the virtual clock.
class Stream {
public:
    explicit Stream(const LinkParams& link) : link_(link) {}

    /// Enqueues a host→device chunk of `words` available at tick `ready`.
    StreamEvent push_to_device(std::uint64_t words, std::size_t offset, Ticks ready) {
        return push(true, words, offset, ready);
    }

    /// Enqueues a device→host chunk of `words` available at tick `ready`.
    StreamEvent push_to_host(std::uint64_t words, std::size_t offset, Ticks ready) {
        return push(false, words, offset, ready);
    }

    /// Completion of everything enqueued so far.
    StreamEvent sync() const noexcept { return StreamEvent{free_at_}; }

    /// First tick a newly enqueued chunk could start.
    Ticks free_at() const noexcept { return free_at_; }

    /// Total link-occupied time: Σ (λ + δ·w) over all chunks.
    Ticks busy() const noexcept { return busy_; }

    const std::vector<StreamChunk>& chunks() const noexcept { return chunks_; }

private:
    StreamEvent push(bool to_device, std::uint64_t words, std::size_t offset, Ticks ready) {
        StreamChunk c;
        c.to_device = to_device;
        c.words = words;
        c.offset = offset;
        c.ready = ready;
        c.start = std::max(ready, free_at_);
        c.end = c.start + link_.transfer_time(words);
        free_at_ = c.end;
        busy_ += c.end - c.start;
        chunks_.push_back(c);
        return StreamEvent{c.end};
    }

    LinkParams link_;
    Ticks free_at_ = 0.0;
    Ticks busy_ = 0.0;
    std::vector<StreamChunk> chunks_;
};

}  // namespace hpu::sim
