// Load generation and bookkeeping for the served workloads.
//
// Everything here is decided before timing starts: the update schedule
// (jitter moves, plus one join and one leave per batch under churn) is
// generated from the seed against a mirror of the service's id space,
// and the open-loop producer sends batch k at a fixed due time. The
// bookkeeping types turn raw timestamps into the reported figures:
// publish latency is measured from a batch's *due* time, so a stalled
// producer or a backed-up queue shows up in latency instead of being
// hidden by a late send.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynamic/spanner.h"
#include "geom/vec2.h"

namespace perfbench {

/// Applies one batch to a position list with the service's semantics:
/// moves to current ids, then joins appended as new largest ids, then
/// leaves one by one with swap-remove (the last node takes the
/// leaver's id). `homes`, when given, is permuted in lockstep (a join's
/// home is its join position). Returns false, leaving the lists in an
/// unspecified state, if the batch names a dead id.
bool apply_batch(std::vector<geospanner::geom::Point>& positions,
                 std::vector<geospanner::geom::Point>* homes,
                 const geospanner::dynamic::UpdateBatch& batch);

struct ScheduleConfig {
    std::size_t batches = 0;
    std::size_t moves_per_batch = 32;
    double step = 0.25;  ///< jitter distance from a node's home position
    bool churn = false;  ///< add one join and one leave to every batch
    double side = 1.0;   ///< joins land uniformly in [0, side]²
    std::uint64_t seed = 1;
};

/// Generates `config.batches` batches over the initial positions. Each
/// move re-scatters a node to `step` from its home, so density stays
/// stable; under churn the generator keeps a swap-remove mirror of the
/// id space so every id it names is live when the batch is applied.
[[nodiscard]] std::vector<geospanner::dynamic::UpdateBatch> make_schedule(
    const std::vector<geospanner::geom::Point>& initial, const ScheduleConfig& config);

/// Due-time bookkeeping of an open-loop producer: batch k is due at
/// start + k * period. Latencies are measured from the due time.
class OpenLoopLog {
  public:
    OpenLoopLog(std::size_t batches, double start_ms, double period_ms);

    [[nodiscard]] double due_ms(std::size_t k) const {
        return start_ms_ + static_cast<double>(k) * period_ms_;
    }
    /// The producer actually sent batch k at `sent_ms`.
    void record_send(std::size_t k, double sent_ms);
    /// A reader first saw batch k applied at `visible_ms` (later calls
    /// for the same k are ignored).
    void record_visible(std::size_t k, double visible_ms);

    /// How late the producer ran for each sent batch (>= 0).
    [[nodiscard]] std::vector<double> lag_ms() const;
    /// visible - due for every batch that became visible.
    [[nodiscard]] std::vector<double> publish_ms() const;

  private:
    double start_ms_;
    double period_ms_;
    std::vector<double> sent_;     ///< < 0 = not sent
    std::vector<double> visible_;  ///< < 0 = not yet visible
};

/// Maps published snapshot versions to batches: with a single producer
/// and no quarantine, batch k (0-based, counted from `base_version`) is
/// contained in every version >= base_version + k + 1.
class VersionTracker {
  public:
    VersionTracker(std::uint64_t base_version, std::size_t batches)
        : base_(base_version), batches_(batches) {}

    /// A reader observed `version`; returns the half-open range of batch
    /// indices [first, last) that this observation made visible for the
    /// first time (empty when nothing new).
    std::pair<std::size_t, std::size_t> observe(std::uint64_t version);

    [[nodiscard]] std::size_t visible() const noexcept { return visible_; }

  private:
    std::uint64_t base_;
    std::size_t batches_;
    std::size_t visible_ = 0;
};

}  // namespace perfbench
