#include "model/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace hpu::model {

PipelinedModel::PipelinedModel(sim::HpuParams hw, Recurrence rec, double n)
    : hw_(std::move(hw)), rec_(std::move(rec)), adv_(hw_, rec_, n) {}

double PipelinedModel::merge_level(double alpha, double y, std::uint64_t chunks) const {
    HPU_CHECK(alpha >= 0.0 && alpha < 1.0, "alpha must be in [0, 1)");
    HPU_CHECK(chunks >= 1, "need at least one chunk");
    y = std::clamp(y, 0.0, adv_.levels());
    const double beta = 1.0 - alpha;
    const double g = static_cast<double>(hw_.gpu.g);
    // Level i keeps every chunk's launch saturated iff (β/K)·aⁱ ≥ g.
    const double d = util::logb(g * static_cast<double>(chunks) / beta, rec_.a);
    return std::clamp(d, y, adv_.levels());
}

double PipelinedModel::gpu_span(double alpha, double y, std::uint64_t chunks) const {
    HPU_CHECK(alpha >= 0.0 && alpha < 1.0, "alpha must be in [0, 1)");
    HPU_CHECK(chunks >= 1, "need at least one chunk");
    y = std::clamp(y, 0.0, adv_.levels());
    const double beta = 1.0 - alpha;
    const double K = static_cast<double>(chunks);
    const double W = beta * adv_.n();
    const double x_full = hw_.link.transfer_time(W);
    if (chunks == 1) {
        // Degenerate pipeline: ship, compute, retrieve — the advanced thread.
        return x_full + mult_ * adv_.gpu_time_for_share(beta, y) + x_full;
    }
    const double x_chunk = hw_.link.transfer_time(W / K);
    const double d = merge_level(alpha, y, chunks);
    const double chunk_compute = mult_ * adv_.gpu_time_for_share(beta / K, d);
    const double shallow =
        mult_ * (adv_.gpu_time_for_share(beta, y) - adv_.gpu_time_for_share(beta, d));
    // Eager input stream: chunk c's words land at (c+1)·x_chunk; its compute
    // starts once both the words and the previous chunk's compute are done.
    std::vector<double> comp_end(chunks, 0.0);
    double in_end = 0.0;
    double comp = 0.0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        in_end += x_chunk;
        comp = std::max(in_end, comp) + chunk_compute;
        comp_end[c] = comp;
    }
    const double link_free = in_end;  // the K input chunks run back-to-back
    if (d > y + 1e-12) {
        // Merged shallow launches need every chunk, then one bulk retrieval.
        return std::max(comp + shallow, link_free) + x_full;
    }
    // d == y: nothing left to merge, results stream back chunk by chunk.
    double cursor = link_free;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        cursor = std::max(comp_end[c], cursor) + x_chunk;
    }
    return cursor;
}

PipelinedPrediction PipelinedModel::predict_at(double alpha, double y,
                                               std::uint64_t chunks) const {
    HPU_CHECK(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    HPU_CHECK(chunks >= 1, "need at least one chunk");
    y = std::clamp(y, 0.0, adv_.levels());
    PipelinedPrediction out;
    out.alpha = alpha;
    out.y = y;
    out.chunks = chunks;
    const double beta = 1.0 - alpha;
    const double K = static_cast<double>(chunks);
    const double W = beta * adv_.n();
    out.chunk_words = W / K;
    out.merge_level = merge_level(alpha, y, chunks);
    out.chunk_compute = mult_ * adv_.gpu_time_for_share(beta / K, out.merge_level);
    out.input_stream_time = K * hw_.link.transfer_time(out.chunk_words);
    out.gpu_span = gpu_span(alpha, y, chunks);
    out.advanced_gpu_span = gpu_span(alpha, y, 1);
    // Mirror the executor's guard: pipeline only when it strictly wins.
    out.chunks_effective = out.gpu_span < out.advanced_gpu_span ? chunks : 1;
    const double span = std::min(out.gpu_span, out.advanced_gpu_span);
    out.cpu_parallel_time = adv_.cpu_parallel_time(alpha);
    out.finish_time = adv_.finish_time(alpha, y);
    out.total_time = std::max(span, out.cpu_parallel_time) + out.finish_time;
    out.advanced_total =
        std::max(out.advanced_gpu_span, out.cpu_parallel_time) + out.finish_time;
    out.pipeline_gain = out.advanced_total - out.total_time;
    out.seq_time = rec_.seq_work(adv_.n());
    out.speedup = out.seq_time / out.total_time;
    return out;
}

}  // namespace hpu::model
