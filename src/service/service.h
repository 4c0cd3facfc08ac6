// High-throughput update service over DynamicSpanner: the "millions of
// mobile users" serving story. Producers enqueue UpdateBatch mobility
// churn from any thread; one ingest worker applies batches in arrival
// order through the incremental patcher; readers take versioned
// copy-on-write snapshots that stay immutable while patches land.
//
// Consistency contract: a SnapshotHandle is a full copy of the
// maintained (positions, UDG, backbone) triple taken between batch
// applications under the state lock — a reader can never observe a
// half-applied batch, and a held snapshot never changes underneath its
// holder. Snapshots are created lazily (first read after a version
// bump) and shared: back-to-back readers between two batches get the
// same handle, so an idle service costs one copy per applied batch at
// most, not one per read.
//
// The copy is flat: every graph and cluster list stores its per-node
// lists in one graph::NodeLists slab, so copying the state is a few
// vector copies per structure rather than one allocation per node and
// list. At n = 20k (uniform, degree ~12; 4-vCPU Xeon, gcc 12 Release)
// the uncontended copy fell from a median 31.8 ms with per-node heap
// vectors to 3.0 ms (55.2 ms to 3.2 ms while the host ran slower).
// ServiceStats::snapshot_ms_total accumulates it.
//
// Hardening (ServiceOptions, all off by default):
//   * Bounded ingest queue with explicit backpressure — block the
//     producer, reject the batch, or coalesce move-only batches into
//     the newest queued one.
//   * Poisoned-batch quarantine: structurally invalid batches
//     (non-finite coordinates, out-of-range ids; dynamic::validate_batch,
//     the check DynamicSpanner::apply throws on) are rejected before
//     apply; an optional post-apply audit gate (verify::audit_backbone
//     every audit_every batches, or a caller-supplied check) rolls a
//     batch that corrupted the invariants back to the last good
//     positions via full rebuild. Either way the service keeps serving
//     and records a QuarantineReport.
//   * Watchdog: with watchdog_ms > 0 each apply runs on a disposable
//     applier thread; an apply that wedges past the deadline is
//     abandoned (the orphaned spanner and thread are kept alive until
//     stop()) and the service degrades to a rebuild from the last good
//     positions instead of stalling the ingest worker forever.
//
// Thread-safety: enqueue(), snapshot(), stats(), drain() are safe from
// any thread. The ingest worker drives the engine ThreadPool for the
// bulk kernels; concurrent external drivers (e.g. a reader rebuilding a
// reference on the same engine) are serialized by the pool itself.
// snapshot() blocks while a batch is mid-apply (bounded by the
// watchdog when one is configured); stats() does not, since the counters
// have their own lock. Each applied or quarantined batch updates all of
// its counters in one step under that lock, so version, applied,
// quarantined and the time totals in stats() agree with each other; the
// producer-side counters are read separately. stop() returns only after enqueues
// are rejected, the backlog is drained, and the worker has exited; it
// also reaps any orphaned applier threads, so a wedged apply must
// terminate eventually for stop() to return.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/backbone.h"
#include "dynamic/spanner.h"
#include "engine/engine.h"
#include "geom/vec2.h"
#include "graph/geometric_graph.h"
#include "service/update_queue.h"
#include "verify/audit.h"

namespace geospanner::service {

/// One immutable published topology: the version counter (bumped on
/// every published-state change, including quarantine rollbacks) plus
/// flat copies of the maintained state. Shared between all readers of
/// that version.
struct Snapshot {
    std::uint64_t version = 0;
    std::vector<geom::Point> points;
    double radius = 0.0;
    graph::GeometricGraph udg;
    core::Backbone backbone;
};

/// Handle a reader holds while querying; keeps the snapshot alive after
/// newer versions are published.
using SnapshotHandle = std::shared_ptr<const Snapshot>;

/// What enqueue() does when the bounded queue is full.
enum class BackpressurePolicy {
    kBlock,     ///< producer waits for the worker to make room
    kReject,    ///< enqueue returns false; batch dropped, counted
    kCoalesce,  ///< move-only batches merge into the newest queued one;
                ///< non-mergeable batches block
};

/// Record of one batch the service refused or rolled back. The service
/// kept serving throughout — quarantine is containment, not an outage.
struct QuarantineReport {
    std::uint64_t version = 0;  ///< published version when the batch was caught
    std::string reason;         ///< validation error, audit failure, or watchdog
    std::size_t moves = 0;
    std::size_t joins = 0;
    std::size_t leaves = 0;
    /// True when the batch had already mutated state and the service
    /// rebuilt from the last good positions; false when it was rejected
    /// before apply (state untouched).
    bool rolled_back = false;
};

/// Hardening knobs. The defaults reproduce the unhardened service
/// exactly: unbounded queue, apply inline on the worker, no gate.
struct ServiceOptions {
    std::size_t queue_capacity = 0;  ///< 0 = unbounded (no backpressure)
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    /// > 0 runs each apply on a disposable applier thread with this
    /// deadline; a wedged apply degrades to rebuild-from-last-good.
    double watchdog_ms = 0.0;
    /// > 0 runs verify::audit_backbone after every Nth applied batch
    /// and quarantines the batch when the audit fails.
    std::size_t audit_every = 0;
    verify::AuditOptions audit_options;
    /// Custom post-apply gate (overrides the audit; runs every batch
    /// unless audit_every sets a cadence): return "" for healthy, a
    /// reason string to quarantine. Called under the state lock with
    /// the just-applied topology.
    std::function<std::string(const Snapshot&)> post_apply_check;
    /// Test seam: runs in the applying context just before each apply
    /// (e.g. to wedge it for watchdog tests).
    std::function<void(const dynamic::UpdateBatch&)> apply_hook;
};

/// Cumulative service counters (since construction).
struct ServiceStats {
    std::uint64_t batches_enqueued = 0;
    std::uint64_t batches_applied = 0;  ///< batches that stuck (not quarantined)
    std::uint64_t updates_applied = 0;  ///< moves + joins + leaves
    std::uint64_t fallbacks = 0;        ///< batches on the full-rebuild path
    /// Batches patched in place. A batch has one dirty region, so the
    /// name's "components" are batches.
    std::uint64_t components_patched = 0;
    /// Batches the region gate sent to a rebuild (PatchStats::over_cap):
    /// a subset of `fallbacks`, which also counts leave batches.
    std::uint64_t component_fallbacks = 0;
    std::uint64_t snapshots_published = 0;
    std::uint64_t batches_rejected = 0;    ///< backpressure kReject drops
    std::uint64_t batches_coalesced = 0;   ///< merged into a queued batch
    std::uint64_t batches_quarantined = 0; ///< validation/audit/watchdog catches
    std::uint64_t watchdog_timeouts = 0;   ///< applies abandoned past deadline
    std::size_t queue_depth = 0;     ///< batches waiting right now
    std::size_t queue_capacity = 0;  ///< configured bound (0 = unbounded)
    std::uint64_t version = 0;       ///< published-state changes so far
    double updates_per_sec = 0.0;    ///< applied updates over service lifetime
    double apply_ms_total = 0.0;     ///< wall time inside DynamicSpanner::apply
    /// Wall time spent copying inside snapshot(), under the state lock.
    double snapshot_ms_total = 0.0;
};

/// Owns the maintained spanner and the ingest worker thread. The engine
/// reference must outlive the service (same contract as DynamicSpanner).
class SpannerService {
  public:
    /// Throws std::invalid_argument on hostile coordinates, like
    /// DynamicSpanner; batches are checked against the same
    /// proximity::in_grid_range bound and quarantined.
    SpannerService(engine::SpannerEngine& engine, std::vector<geom::Point> points,
                   double radius, ServiceOptions options = {});
    ~SpannerService();  ///< stop() + join

    SpannerService(const SpannerService&) = delete;
    SpannerService& operator=(const SpannerService&) = delete;

    /// Queues one batch for the ingest worker (any thread). False after
    /// stop() or when the backpressure policy rejected it. May block
    /// under kBlock (and kCoalesce on a non-mergeable batch) while the
    /// bounded queue is full.
    bool enqueue(dynamic::UpdateBatch batch);

    /// The current published topology. Blocks only for the copy (and
    /// never while a batch is mid-application — the copy happens between
    /// batches under the state lock).
    [[nodiscard]] SnapshotHandle snapshot();

    /// Blocks until every batch enqueued before this call was processed
    /// (applied, coalesced-and-applied, or quarantined).
    void drain();

    /// Rejects further enqueues, drains the backlog, joins the worker
    /// and any orphaned applier threads. Idempotent; the destructor
    /// calls it.
    void stop();

    [[nodiscard]] ServiceStats stats() const;

    /// Every quarantine so far, oldest first.
    [[nodiscard]] std::vector<QuarantineReport> quarantine_reports() const;

  private:
    /// Queue element: one batch plus how many producer enqueues it
    /// carries (> 1 after coalescing), for drain accounting.
    struct Ingest {
        dynamic::UpdateBatch batch;
        std::size_t merged = 1;
    };

    /// Shared state of one watchdogged apply; owns the batch copy so an
    /// abandoned applier thread never reads freed worker memory.
    struct ApplyShared {
        std::mutex mutex;
        std::condition_variable done_cv;
        bool done = false;
        dynamic::UpdateBatch batch;
        dynamic::PatchStats stats;
    };

    /// A wedged apply we walked away from: the thread still running it
    /// and the spanner it is mutating, kept alive until stop().
    struct Orphan {
        std::thread thread;
        std::unique_ptr<dynamic::DynamicSpanner> spanner;
        std::shared_ptr<ApplyShared> shared;
    };

    void worker_loop();
    /// Validate → apply (inline or watchdogged) → gate → publish, all
    /// under state_mutex_.
    void process(Ingest& ingest);
    /// Runs apply on a disposable thread; false = deadline passed and
    /// spanner_ was orphaned (caller must rebuild).
    bool apply_with_watchdog(const dynamic::UpdateBatch& batch,
                             dynamic::PatchStats& out);
    /// "" = healthy; otherwise the quarantine reason.
    [[nodiscard]] std::string run_gate();
    void rebuild_from_last_good();
    /// Appends the report only; the caller counts the batch.
    void record_quarantine(std::string reason, const dynamic::UpdateBatch& batch,
                           bool rolled_back);

    engine::SpannerEngine* engine_;
    ServiceOptions options_;
    double radius_ = 0.0;
    bool gate_configured_ = false;
    bool track_last_good_ = false;
    std::unique_ptr<dynamic::DynamicSpanner> spanner_;  ///< guarded by state_mutex_
    UpdateQueue<Ingest> queue_;
    std::thread worker_;

    /// Guards spanner_, cached_, gate_counter_, last_good_points_ and
    /// quarantine_reports_.
    mutable std::mutex state_mutex_;
    SnapshotHandle cached_;  ///< snapshot of `version_`; null when stale
    std::uint64_t gate_counter_ = 0;
    std::vector<geom::Point> last_good_points_;  ///< rollback target
    std::vector<QuarantineReport> quarantine_reports_;

    /// Guards the counters below, so stats() never waits behind an apply.
    /// Writers hold state_mutex_ too (lock order: state, then stats), so
    /// code under state_mutex_ may read them without this lock.
    mutable std::mutex stats_mutex_;
    std::uint64_t version_ = 0;
    std::uint64_t batches_applied_ = 0;
    std::uint64_t updates_applied_ = 0;
    std::uint64_t fallbacks_ = 0;
    std::uint64_t components_patched_ = 0;
    std::uint64_t component_fallbacks_ = 0;
    std::uint64_t snapshots_published_ = 0;
    std::uint64_t batches_quarantined_ = 0;
    std::uint64_t watchdog_timeouts_ = 0;
    double apply_ms_total_ = 0.0;
    double snapshot_ms_total_ = 0.0;

    /// Producer-side counters (outside the state lock).
    std::atomic<std::uint64_t> batches_rejected_{0};
    std::atomic<std::uint64_t> batches_coalesced_{0};

    /// Drain accounting: enqueued_ is bumped by producers, applied_ by
    /// the worker after the batch fully landed; drain() waits for
    /// applied_ to catch up under drain_mutex_.
    mutable std::mutex drain_mutex_;
    std::condition_variable drained_;
    std::uint64_t enqueued_ = 0;
    std::uint64_t applied_ = 0;

    /// Touched only by the worker while it runs, and by stop() after
    /// the worker joined — never concurrently.
    std::vector<Orphan> orphans_;

    std::mutex stop_mutex_;  ///< serializes stop() callers around the join
    std::chrono::steady_clock::time_point start_;
};

}  // namespace geospanner::service
