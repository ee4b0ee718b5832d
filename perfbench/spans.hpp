// The benchmark's own span recorder. Traced runs wrap every public call the
// benchmark makes (executor runs, references, checks, probes) in a span
// carrying name, start, end, parent span and job id. Spans stay in memory
// and are written once, at exit. A span's self time is its duration minus
// the part of it its child spans cover. With tracing off, Scope is a no-op.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.hpp"

namespace perfbench {

struct BenchSpan {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  ///< index into Tracer::spans(); -1 = a root
    std::int64_t job = -1;  ///< job id; -1 = not part of a job (set-up, probes)

    std::uint64_t duration_ns() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

class Tracer {
public:
    /// Opens a span under the innermost open one.
    int open(std::string name, std::int64_t job) {
        BenchSpan s;
        s.name = std::move(name);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.job = job;
        s.start_ns = hpu::util::now_ns();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void close(int id) {
        spans_[static_cast<std::size_t>(id)].end_ns = hpu::util::now_ns();
        if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    }

    const std::vector<BenchSpan>& spans() const { return spans_; }

    /// Per span: its duration not covered by the union of its children.
    std::vector<std::uint64_t> self_times() const {
        std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans_.size());
        for (const BenchSpan& c : spans_) {
            if (c.parent < 0) continue;
            kids[static_cast<std::size_t>(c.parent)].emplace_back(c.start_ns, c.end_ns);
        }
        std::vector<std::uint64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const BenchSpan& s = spans_[i];
            auto& k = kids[i];
            std::sort(k.begin(), k.end());
            std::uint64_t covered = 0, reach = s.start_ns;
            for (const auto& [b, e] : k) {
                const std::uint64_t from = std::max(b, reach);
                const std::uint64_t to = std::min(e, s.end_ns);
                if (to > from) {
                    covered += to - from;
                    reach = to;
                }
            }
            self[i] = s.duration_ns() - std::min(covered, s.duration_ns());
        }
        return self;
    }

    /// All spans as one JSON array (times in ns from the first span).
    void write_json(std::ostream& os) const {
        const std::vector<std::uint64_t> self = self_times();
        const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
        os << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const BenchSpan& s = spans_[i];
            os << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"parent\": "
               << s.parent << ", \"job\": " << s.job << ", \"start_ns\": " << s.start_ns - t0
               << ", \"end_ns\": " << s.end_ns - t0 << ", \"self_ns\": " << self[i] << "}"
               << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]\n";
    }

private:
    std::vector<BenchSpan> spans_;
    std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
    Scope(Tracer* t, std::string name, std::int64_t job = -1)
        : t_(t), id_(t != nullptr ? t->open(std::move(name), job) : -1) {}
    ~Scope() {
        if (t_ != nullptr) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }

private:
    Tracer* t_;
    int id_;
};

}  // namespace perfbench
