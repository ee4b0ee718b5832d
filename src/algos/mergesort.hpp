// The paper's case study (§6): mergesort as a LevelAlgorithm, in two
// variants.
//
// MergesortPlain — the direct §4 translation (Alg. 7): task j of a level
// with `count` tasks merges the two sorted halves of its slice. The same
// body runs on a CPU core or as a GPU work-item; on the device its
// sequential slice walk is uncoalesced across the wave and pays the SIMT
// memory penalty.
//
// MergesortCoalesced — adds the §6.3 optimization: on the device, runs are
// kept in an interleaved layout (element k of run j at index k·runs + j) so
// that adjacent work-items touch adjacent words. Levels ping-pong between
// the data buffer and a scratch buffer; a final un-interleave restores
// row-major order before the array returns to the CPU — the optimization is
// transparent to the CPU side, exactly as in the paper.
//
// Both share an element-wise form of a level, Fig. 9's binary-search merge
// with one work-item per element, which run_gpu uses for the levels below
// its element-wise switch (Fig. 9, and §7's parallel tail).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/level_algorithm.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/transpose.hpp"

namespace hpu::algos {

template <typename T>
class MergesortPlain : public core::LevelAlgorithm<T> {
public:
    std::string name() const override { return "mergesort"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }

    model::Recurrence recurrence() const override {
        // Per output element: 1 comparison + 2.5 words (stage the left
        // half: 0.5, then read + write each element) — see run_task.
        return model::mergesort_recurrence(3.5);
    }

    void prepare(std::uint64_t n) const override { scratch_.resize(n); }

    void bind_exec(const util::MergeExec& exec) const override { exec_ = exec; }

    bool intra_task_parallel() const override { return exec_.parallel_ok(); }

    void run_task(std::span<T> data, std::uint64_t count, std::uint64_t j,
                  sim::OpCounter& ops) const override {
        merge_slice(data, count, j, ops, sim::Pattern::kStrided);
    }

    double device_ops_multiplier(const sim::DeviceParams& dev) const override {
        // CPU ops per element: 1 compute + 2.5 mem = 3.5. On the device
        // the words pay the strided penalty.
        return (1.0 + 2.5 * dev.strided_penalty) / 3.5;
    }

    std::optional<sim::OpCounter> elementwise_item_ops(std::uint64_t task_size) const override {
        // Fig. 9's binary-search merge: an item reads its element, probes
        // the sibling run of r = task_size/2 elements log r + 1 times
        // (charged as compute: the probes hit cached segments), and writes
        // the element to its rank — adjacent items, adjacent words.
        sim::OpCounter ops;
        ops.charge_compute(1 + util::ilog2(task_size / 2) + 1);
        ops.charge_mem(2, sim::Pattern::kCoalesced);
        return ops;
    }

    void run_elementwise_level(std::span<T> data, std::uint64_t count) const override {
        // An item lands at its rank in its own run plus its lower_bound
        // (left run) or upper_bound (right run) in the sibling — exactly
        // where the stable merge of the pair puts it. So the level is one
        // merge per pair, staged through scratch: across pairs on a wide
        // level, within each merge on a narrow one, serial without a
        // Merge Path binding.
        const std::uint64_t sz = data.size() / count;
        HPU_CHECK(scratch_.size() >= data.size(), "prepare() was not called");
        util::ThreadPool* pool = exec_.pool;
        auto merge_pair = [&](std::uint64_t j, std::size_t parts) {
            T* staged = scratch_.data() + j * sz;
            std::copy_n(data.data() + j * sz, sz, staged);
            util::merge_segments(pool, staged, sz / 2, staged + sz / 2, sz / 2,
                                 data.data() + j * sz, std::less<T>{}, parts);
        };
        if (exec_.parallel_ok() && count > pool->worker_count()) {
            pool->parallel_for(count, [&](std::size_t j) { merge_pair(j, 1); });
        } else {
            for (std::uint64_t j = 0; j < count; ++j) {
                merge_pair(j, util::merge_parts(sz, pool));
            }
        }
    }

    std::optional<verify::TaskFootprint> footprint(
        const verify::FootprintQuery& /*query*/) const override {
        // Every phase reads and rewrites exactly its own slice
        // [j·sz, (j+1)·sz); the staging area is per-task private scratch
        // and never logged (see merge_slice).
        verify::SymAccess slice;
        slice.base = verify::Sym::lit(0);
        slice.jcoef = verify::Sym::size();
        slice.words = verify::Sym::size();
        slice.stride = verify::Sym::lit(1);
        verify::TaskFootprint fp;
        fp.reads.push_back(slice);
        fp.writes.push_back(slice);
        return fp;
    }

protected:
    /// Classic merge with the copy-left-half trick: stage [lo, mid) in
    /// scratch, then merge scratch and [mid, hi) back into [lo, hi).
    /// Charges: sz/2 staged words + per output element one compare, one
    /// read, one write.
    ///
    /// With a Merge Path binding, a large-enough merge instead stages the
    /// WHOLE slice in scratch and runs pool-parallel segments back into
    /// data (the serial in-place walk overlaps its output with the right
    /// run, which is racy under segment parallelism). Same stable merge
    /// (ties take the left run in both paths), same output bytes; the
    /// charges and logs below are closed-form in (sz, lo) and sit outside
    /// the path choice, so the virtual clock cannot move.
    void merge_slice(std::span<T> data, std::uint64_t count, std::uint64_t j,
                     sim::OpCounter& ops, sim::Pattern pattern) const {
        const std::uint64_t sz = data.size() / count;
        const std::uint64_t lo = j * sz, mid = lo + sz / 2, hi = lo + sz;
        HPU_CHECK(scratch_.size() >= data.size(), "prepare() was not called");
        const std::size_t parts =
            exec_.parallel_ok() ? util::merge_parts(sz, exec_.pool) : 1;
        if (parts > 1) {
            T* staged = scratch_.data() + lo;
            std::copy(data.begin() + static_cast<std::ptrdiff_t>(lo),
                      data.begin() + static_cast<std::ptrdiff_t>(hi), staged);
            util::merge_segments(exec_.pool, staged, mid - lo, staged + (mid - lo),
                                 hi - mid, data.data() + lo, std::less<T>{}, parts);
        } else {
            T* left = scratch_.data() + lo;
            std::copy(data.begin() + static_cast<std::ptrdiff_t>(lo),
                      data.begin() + static_cast<std::ptrdiff_t>(mid), left);
            std::uint64_t i = 0, r = mid, k = lo;
            const std::uint64_t nl = mid - lo;
            while (i < nl && r < hi) {
                data[k++] = left[i] <= data[r] ? left[i++] : data[r++];
            }
            while (i < nl) data[k++] = left[i++];
            // Tail of the right run is already in place.
        }
        ops.charge_compute(sz);
        ops.charge_mem(sz / 2 + 2 * sz, pattern);
        // Declared footprint for the race detector: the task reads and
        // rewrites exactly its own slice (the staging area is per-slice
        // private scratch, invisible to other items).
        ops.log_read(lo, sz);
        ops.log_write(lo, sz);
    }

    mutable std::vector<T> scratch_;
    mutable util::MergeExec exec_;
};

template <typename T>
class MergesortCoalesced final : public MergesortPlain<T> {
public:
    std::string name() const override { return "mergesort-coalesced"; }

    sim::Pattern device_pattern() const override { return sim::Pattern::kCoalesced; }

    double device_ops_multiplier(const sim::DeviceParams&) const override {
        // Device ops per element: 1 compute + 2 coalesced words = 3, vs
        // 3.5 CPU ops from the recurrence.
        return 3.0 / 3.5;
    }

    void before_gpu_levels(std::span<T> device_data, std::uint64_t deepest_count,
                           sim::OpCounter& ops) const override {
        // The deepest level to run merges 2·deepest_count sorted input runs.
        dscratch_.resize(device_data.size());
        const std::uint64_t runs_in = 2 * deepest_count;
        cur_is_scratch_ = false;
        // A slice too small for even one task at the deepest level runs no
        // device levels at all — keep the identity layout.
        if (runs_in == 0) {
            runs_ = device_data.size();
            return;
        }
        runs_ = runs_in;
        // Size-1 runs make the interleaved layout the identity — no
        // initial permutation cost, the layout simply *stays* interleaved
        // as the levels climb.
        if (runs_in == device_data.size()) return;
        // Mid-tree entry (the pipelined executor's merged shallow stage):
        // the runs arrive row-major, so physically interleave them first —
        // the inverse of the after_gpu_levels permutation, same tiled
        // transpose price.
        const std::uint64_t m = device_data.size() / runs_in;
        util::transpose(this->exec_, device_data.data(), m, dscratch_.data(), runs_in, runs_in,
                        m);
        cur_is_scratch_ = true;
        ops.charge_mem(2 * device_data.size(), sim::Pattern::kCoalesced);
        ops.charge_compute(device_data.size() / 4);
    }

    /// The per-item strided walk: item j merges the interleaved columns 2j
    /// and 2j + 1 into column j of the other ping-pong buffer.
    void run_device_task(std::span<T> data, std::uint64_t count, std::uint64_t j,
                         sim::OpCounter& ops) const override {
        HPU_CHECK(runs_ == 2 * count, "interleaved layout out of sync with the level");
        const std::uint64_t in_runs = 2 * count;
        const std::uint64_t m = data.size() / in_runs;  // input run length
        const T* src = cur_is_scratch_ ? dscratch_.data() : data.data();
        T* dst = cur_is_scratch_ ? data.data() : dscratch_.data();
        const std::uint64_t ra = 2 * j, rb = 2 * j + 1;
        // Interleave-aware Merge Path: the two input columns and the output
        // column are strided views over disjoint ping-pong buffers, so the
        // segments write disjoint output cells. Same stable merge as the
        // serial walk below (va <= vb takes run A).
        const std::size_t parts = walk_parts(m);
        if (parts > 1) {
            util::merge_segments_strided(
                this->exec_.pool, util::Strided<const T>{src + ra, in_runs}, m,
                util::Strided<const T>{src + rb, in_runs}, m,
                util::Strided<T>{dst + j, count}, std::less<T>{}, parts);
        } else {
            auto src_at = [&](std::uint64_t run, std::uint64_t k) {
                return src[k * in_runs + run];
            };
            std::uint64_t ia = 0, ib = 0, k = 0;
            while (ia < m && ib < m) {
                const T va = src_at(ra, ia), vb = src_at(rb, ib);
                if (va <= vb) {
                    dst[k * count + j] = va;
                    ++ia;
                } else {
                    dst[k * count + j] = vb;
                    ++ib;
                }
                ++k;
            }
            while (ia < m) dst[k++ * count + j] = src_at(ra, ia++);
            while (ib < m) dst[k++ * count + j] = src_at(rb, ib++);
        }
        charge_item(count, j, m, ops);
    }

    /// A work-group of t items stages instead of walking (DESIGN.md §15):
    /// one blocked transpose copies its 2t input columns row-major into
    /// scratch_, at those runs' own offsets (disjoint across the groups of
    /// a launch); each pair merges half in place there, through a
    /// thread-local copy of run A; a second blocked transpose writes the t
    /// merged runs into their output columns. Same stable merge, same
    /// bytes, and each item charges and logs what its walk would. Groups
    /// narrower than kMinStagedGroup, runs longer than kStageCap, and
    /// merges the walk splits across a free pool walk item by item.
    void run_device_group(std::span<T> data, std::uint64_t count, std::uint64_t first,
                          std::span<sim::OpCounter> ops) const override {
        const std::uint64_t t = ops.size();
        const std::uint64_t m = data.size() / (2 * count);  // input run length
        if (t < kMinStagedGroup || m > kStageCap || walk_parts(m) > 1) {
            MergesortPlain<T>::run_device_group(data, count, first, ops);
            return;
        }
        HPU_CHECK(runs_ == 2 * count, "interleaved layout out of sync with the level");
        HPU_CHECK(this->scratch_.size() >= data.size(), "prepare() was not called");
        const T* src = cur_is_scratch_ ? dscratch_.data() : data.data();
        T* dst = cur_is_scratch_ ? data.data() : dscratch_.data();
        T* staged = this->scratch_.data() + 2 * first * m;
        util::transpose(src + 2 * first, 2 * count, staged, m, m, 2 * t);
        // Allocated once per thread; only the pages a run uses are touched.
        thread_local std::unique_ptr<T[]> copy = std::make_unique_for_overwrite<T[]>(kStageCap);
        const T* left = copy.get();
        for (std::uint64_t i = 0; i < t; ++i) {
            // merge_slice's serial merge: run A copied out, merged with run B
            // back into the pair's cells (ties take run A).
            T* pair = staged + 2 * i * m;
            std::copy_n(pair, m, copy.get());
            std::uint64_t ia = 0, ib = m, k = 0;
            while (ia < m && ib < 2 * m) pair[k++] = left[ia] <= pair[ib] ? left[ia++] : pair[ib++];
            while (ia < m) pair[k++] = left[ia++];
            charge_item(count, first + i, m, ops[i]);
        }
        util::transpose(staged, 2 * m, dst + first, count, t, 2 * m);
    }

    void after_gpu_level(std::span<T> /*device_data*/, std::uint64_t count,
                         sim::OpCounter& /*ops*/) const override {
        cur_is_scratch_ = !cur_is_scratch_;
        runs_ = count;
    }

    void after_gpu_levels(std::span<T> device_data, std::uint64_t count,
                          sim::OpCounter& ops) const override {
        HPU_CHECK(runs_ == count, "interleaved layout out of sync at readback");
        if (runs_ == device_data.size()) return;  // identity layout, nothing ran
        const std::uint64_t m = device_data.size() / runs_;
        // Un-interleave back to row-major so the CPU sees ordinary runs —
        // "the array is permuted back to the original arrangement" (§6.3).
        if (!cur_is_scratch_) std::copy(device_data.begin(), device_data.end(), dscratch_.begin());
        util::transpose(this->exec_, dscratch_.data(), runs_, device_data.data(), m, m, runs_);
        cur_is_scratch_ = false;
        // A tiled device transpose moves each word twice, coalesced.
        ops.charge_mem(2 * device_data.size(), sim::Pattern::kCoalesced);
        ops.charge_compute(device_data.size() / 4);
    }

    sim::OpCounter analytic_gpu_hook_ops(std::uint64_t region_elems) const override {
        // Transpose price of one non-identity layout hook: the final
        // un-interleave (after_gpu_levels), and for mid-tree entries also
        // the initial interleave (before_gpu_levels) — both cost the same.
        sim::OpCounter ops;
        ops.charge_mem(2 * region_elems, sim::Pattern::kCoalesced);
        ops.charge_compute(region_elems / 4);
        return ops;
    }

    std::optional<verify::TaskFootprint> footprint(
        const verify::FootprintQuery& query) const override {
        // The CPU body and the leaves are MergesortPlain's; only the
        // device walk differs: task j reads the interleaved columns 2j and
        // 2j+1 of the ping buffer (stride 2·count across sz/2 rows) and
        // writes column j of the pong buffer (stride count across sz
        // rows). Which buffer is ping is a runtime orientation the
        // conformance checker resolves; the prover only needs ping != pong.
        if (query.phase != verify::Phase::kDeviceTask) {
            return MergesortPlain<T>::footprint(query);
        }
        using verify::Region;
        using verify::Sym;
        verify::SymAccess even{Region::kPing, Sym::lit(0), Sym::lit(2), Sym::size(1, 2),
                               Sym::count(2)};
        verify::SymAccess odd = even;
        odd.base = Sym::lit(1);
        verify::SymAccess out{Region::kPong, Sym::lit(0), Sym::lit(1), Sym::size(),
                              Sym::count(1)};
        verify::TaskFootprint fp;
        fp.reads = {even, odd};
        fp.writes = {out};
        return fp;
    }

    /// Longest input run a work-group stages. It bounds the thread-local
    /// copy of run A at 2^17 elements (512 KiB of int32 per thread, of
    /// which a run touches only what it uses).
    static constexpr std::uint64_t kStageCap = std::uint64_t{1} << 17;

private:
    /// Narrowest group that stages. A narrower one reads less than half a
    /// 4-byte cache line per row, and on a pooled launch its neighbours
    /// share its lines from other cores; the walk serves it better.
    static constexpr std::uint64_t kMinStagedGroup = 4;

    /// Merge Path segments the walk splits one merge of 2m outputs into:
    /// more than one only for a long merge when the pool is free.
    std::size_t walk_parts(std::uint64_t m) const {
        return this->exec_.parallel_ok() ? util::merge_parts(2 * m, this->exec_.pool) : 1;
    }

    /// Item j's charges and declared footprint on a level of `count` tasks
    /// over input runs of m: closed-form, whichever kernel moved its data.
    void charge_item(std::uint64_t count, std::uint64_t j, std::uint64_t m,
                     sim::OpCounter& ops) const {
        // 1 compare + 2 coalesced words per output element.
        ops.charge_compute(2 * m);
        ops.charge_mem(4 * m, sim::Pattern::kCoalesced);
        // Declared footprint: interleaved columns 2j, 2j + 1 of src, column
        // j of dst. The ping-pong scratch lives in a disjoint address
        // region so data-vs-scratch accesses can never alias.
        const std::uint64_t src_base = cur_is_scratch_ ? verify::kScratchRegionBase : 0;
        const std::uint64_t dst_base = cur_is_scratch_ ? 0 : verify::kScratchRegionBase;
        ops.log_read(src_base + 2 * j, m, 2 * count);
        ops.log_read(src_base + 2 * j + 1, m, 2 * count);
        ops.log_write(dst_base + j, 2 * m, count);
    }

    mutable std::vector<T> dscratch_;
    mutable bool cur_is_scratch_ = false;
    mutable std::uint64_t runs_ = 0;
};

}  // namespace hpu::algos
