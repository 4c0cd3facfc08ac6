#include "load.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "random/rng.h"

namespace perfbench {

using geospanner::dynamic::UpdateBatch;
using geospanner::geom::Point;
using geospanner::graph::NodeId;

bool apply_batch(std::vector<Point>& positions, std::vector<Point>* homes,
                 const UpdateBatch& batch) {
    for (const auto& move : batch.moves) {
        if (move.node >= positions.size()) return false;
        positions[move.node] = move.to;
    }
    for (const Point p : batch.joins) {
        positions.push_back(p);
        if (homes != nullptr) homes->push_back(p);
    }
    for (const NodeId v : batch.leaves) {
        if (v >= positions.size()) return false;
        positions[v] = positions.back();
        positions.pop_back();
        if (homes != nullptr) {
            (*homes)[v] = homes->back();
            homes->pop_back();
        }
    }
    return true;
}

std::vector<UpdateBatch> make_schedule(const std::vector<Point>& initial,
                                       const ScheduleConfig& config) {
    geospanner::rnd::Xoshiro256 rng(config.seed);
    std::vector<Point> positions = initial;
    std::vector<Point> homes = initial;
    std::vector<UpdateBatch> out;
    out.reserve(config.batches);
    for (std::size_t b = 0; b < config.batches && !positions.empty(); ++b) {
        UpdateBatch batch;
        for (std::size_t i = 0; i < config.moves_per_batch; ++i) {
            const auto v = static_cast<NodeId>(rng.below(positions.size()));
            const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
            batch.moves.push_back({v,
                                   {homes[v].x + config.step * std::cos(angle),
                                    homes[v].y + config.step * std::sin(angle)}});
        }
        if (config.churn) {
            batch.joins.push_back(
                {rng.uniform(0.0, config.side), rng.uniform(0.0, config.side)});
            // Leaves apply after the join, so the joiner's id is live too.
            batch.leaves.push_back(static_cast<NodeId>(rng.below(positions.size() + 1)));
        }
        apply_batch(positions, &homes, batch);
        out.push_back(std::move(batch));
    }
    return out;
}

OpenLoopLog::OpenLoopLog(std::size_t batches, double start_ms, double period_ms)
    : start_ms_(start_ms),
      period_ms_(period_ms),
      sent_(batches, -1.0),
      visible_(batches, -1.0) {}

void OpenLoopLog::record_send(std::size_t k, double sent_ms) { sent_.at(k) = sent_ms; }

void OpenLoopLog::record_visible(std::size_t k, double visible_ms) {
    if (visible_.at(k) < 0.0) visible_[k] = visible_ms;
}

std::vector<double> OpenLoopLog::lag_ms() const {
    std::vector<double> out;
    for (std::size_t k = 0; k < sent_.size(); ++k) {
        if (sent_[k] >= 0.0) out.push_back(std::max(0.0, sent_[k] - due_ms(k)));
    }
    return out;
}

std::vector<double> OpenLoopLog::publish_ms() const {
    std::vector<double> out;
    for (std::size_t k = 0; k < visible_.size(); ++k) {
        if (visible_[k] >= 0.0) out.push_back(visible_[k] - due_ms(k));
    }
    return out;
}

std::pair<std::size_t, std::size_t> VersionTracker::observe(std::uint64_t version) {
    const std::size_t first = visible_;
    if (version > base_) {
        const std::uint64_t contained = version - base_;
        visible_ = std::max<std::size_t>(
            visible_, static_cast<std::size_t>(std::min<std::uint64_t>(contained, batches_)));
    }
    return {first, visible_};
}

}  // namespace perfbench
