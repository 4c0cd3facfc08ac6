// Update-service soak: N producer threads pour mobility batches into
// the ingest queue while M reader threads take versioned snapshots.
// Every snapshot must be an internally consistent topology — its UDG
// and backbone exactly match a from-scratch build on its own positions
// (a half-applied batch can never satisfy that) and pass the full
// Lemma 1-8 audit trail; versions are monotone per reader; the drained
// final state equals the reference. The single-threaded tests pin the
// queue, drain, stats, and snapshot-sharing contracts.
#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dynamic_test_util.h"
#include "proximity/udg.h"
#include "service/update_queue.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner::service {
namespace {

using graph::NodeId;
using protocol::ClusterPolicy;

constexpr double kRadius = 55.0;

/// "" when the snapshot is a topology only whole-batch boundaries could
/// produce: UDG and backbone equal the from-scratch build on the
/// snapshot's own positions.
std::string snapshot_divergence(const Snapshot& snap) {
    return test::state_divergence(snap.points, snap.radius, snap.udg, snap.backbone,
                                  ClusterPolicy::kLowestId);
}

/// Deterministic move-only batch over the first `n` node ids (producers
/// never join/leave, so ids stay valid under concurrency).
dynamic::UpdateBatch make_batch(rnd::Xoshiro256& rng, std::size_t n,
                                const std::vector<geom::Point>& initial,
                                std::size_t moves) {
    dynamic::UpdateBatch batch;
    for (std::size_t i = 0; i < moves; ++i) {
        const auto v = static_cast<NodeId>(rng.below(n));
        const geom::Point p = initial[v];
        batch.moves.push_back(
            {v, {p.x + rng.uniform(-20.0, 20.0), p.y + rng.uniform(-20.0, 20.0)}});
    }
    return batch;
}

TEST(UpdateQueue, PushPopOrderAndClose) {
    UpdateQueue<int> queue;
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.push(1), PushResult::kQueued);
    EXPECT_EQ(queue.push(2), PushResult::kQueued);
    EXPECT_EQ(queue.push(3), PushResult::kQueued);
    EXPECT_EQ(queue.depth(), 3u);

    int out = 0;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 1);

    queue.close();
    EXPECT_EQ(queue.push(4), PushResult::kClosed);  // Rejected, not queued.
    // The backlog accepted before close() still drains in order.
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 3);
    EXPECT_FALSE(queue.pop(out));  // Shutdown.
    queue.close();                 // Idempotent.
}

TEST(UpdateQueue, BoundedRejectAndCoalescePolicies) {
    UpdateQueue<int> queue;
    queue.set_bound(2, /*reject_when_full=*/true);
    EXPECT_EQ(queue.push(1), PushResult::kQueued);
    EXPECT_EQ(queue.push(2), PushResult::kQueued);
    EXPECT_EQ(queue.push(3), PushResult::kRejected);
    EXPECT_EQ(queue.depth(), 2u);

    // Coalescing merges into the newest queued item; a refused merge
    // falls through to the reject policy.
    queue.set_bound(2, /*reject_when_full=*/true, [](int& newest, int& incoming) {
        if (incoming < 0) return false;
        newest += incoming;
        return true;
    });
    EXPECT_EQ(queue.push(10), PushResult::kCoalesced);
    EXPECT_EQ(queue.push(-1), PushResult::kRejected);
    EXPECT_EQ(queue.depth(), 2u);

    int out = 0;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 12);  // 2 absorbed the coalesced 10.
}

TEST(UpdateQueue, BoundedBlockWakesOnPopAndClose) {
    UpdateQueue<int> queue;
    queue.set_bound(1, /*reject_when_full=*/false);
    EXPECT_EQ(queue.push(1), PushResult::kQueued);

    // A blocked producer completes once the consumer makes room.
    std::thread producer([&] { EXPECT_EQ(queue.push(2), PushResult::kQueued); });
    int out = 0;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 1);
    producer.join();
    EXPECT_EQ(queue.depth(), 1u);

    // A producer blocked at close() time is rejected, not deadlocked.
    std::thread blocked([&] { EXPECT_EQ(queue.push(3), PushResult::kClosed); });
    queue.close();
    blocked.join();
}

TEST(UpdateQueue, BlockedPopWakesOnClose) {
    UpdateQueue<int> queue;
    std::atomic<bool> woke{false};
    std::thread consumer([&] {
        int out = 0;
        EXPECT_FALSE(queue.pop(out));
        woke = true;
    });
    queue.close();
    consumer.join();
    EXPECT_TRUE(woke);
}

TEST(SpannerService, DrainedStateMatchesReference) {
    const auto udg = test::connected_udg(60, 220.0, kRadius, 17);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    SpannerService service(engine, udg.points(), kRadius);

    rnd::Xoshiro256 rng(23);
    std::size_t updates = 0;
    for (int i = 0; i < 10; ++i) {
        auto batch = make_batch(rng, udg.node_count(), udg.points(), 4);
        updates += batch.moves.size();
        ASSERT_TRUE(service.enqueue(std::move(batch)));
    }
    service.drain();

    const SnapshotHandle snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->version, 10u);
    EXPECT_EQ(snapshot_divergence(*snap), "");

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_enqueued, 10u);
    EXPECT_EQ(stats.batches_applied, 10u);
    EXPECT_EQ(stats.updates_applied, updates);
    EXPECT_EQ(stats.version, 10u);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_GE(stats.snapshots_published, 1u);
}

TEST(SpannerService, SnapshotsAreSharedBetweenBatchesAndImmutableAcross) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 5);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    SpannerService service(engine, udg.points(), kRadius);
    service.drain();

    // Back-to-back readers between batches share one snapshot object.
    const SnapshotHandle a = service.snapshot();
    const SnapshotHandle b = service.snapshot();
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->version, 0u);

    rnd::Xoshiro256 rng(7);
    ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 3)));
    service.drain();

    // A new version means a new snapshot; the held one is untouched.
    const SnapshotHandle c = service.snapshot();
    EXPECT_NE(c.get(), a.get());
    EXPECT_EQ(c->version, 1u);
    EXPECT_EQ(a->version, 0u);
    EXPECT_EQ(a->points, udg.points());
    EXPECT_EQ(snapshot_divergence(*a), "");
    EXPECT_EQ(snapshot_divergence(*c), "");
}

/// Every list a snapshot exposes, copied out of it: the edges of the UDG
/// and the six backbone graphs, and both cluster lists per node.
struct RecordedLists {
    std::vector<std::vector<std::pair<NodeId, NodeId>>> edges;
    std::vector<std::vector<NodeId>> dominators;
    std::vector<std::vector<NodeId>> two_hop_dominators;
};

RecordedLists record_lists(const Snapshot& snap) {
    const core::Backbone& bb = snap.backbone;
    RecordedLists out;
    for (const graph::GeometricGraph* g : {&snap.udg, &bb.cds, &bb.cds_prime, &bb.icds,
                                           &bb.icds_prime, &bb.ldel_icds,
                                           &bb.ldel_icds_prime}) {
        out.edges.push_back(g->edges());
    }
    for (NodeId v = 0; v < snap.udg.node_count(); ++v) {
        const auto doms = bb.cluster.dominators_of[v];
        const auto two_hop = bb.cluster.two_hop_dominators_of[v];
        out.dominators.emplace_back(doms.begin(), doms.end());
        out.two_hop_dominators.emplace_back(two_hop.begin(), two_hop.end());
    }
    return out;
}

TEST(SpannerService, HeldSnapshotListsUnchangedByLaterBatches) {
    const auto udg = test::connected_udg(80, 240.0, kRadius, 41);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    SpannerService service(engine, udg.points(), kRadius);
    service.drain();
    const SnapshotHandle held = service.snapshot();
    const RecordedLists at_take = record_lists(*held);

    // Batches move held-snapshot nodes together with their held-time
    // neighbours, so the live adjacency and cluster lists that the
    // snapshot was copied from grow, shrink and move in their slabs.
    rnd::Xoshiro256 rng(99);
    const auto n = static_cast<NodeId>(udg.node_count());
    for (int round = 0; round < 6; ++round) {
        for (NodeId v = static_cast<NodeId>(round); v < n; v += 7) {
            dynamic::UpdateBatch batch;
            for (const NodeId u : held->udg.neighbors(v)) {
                const geom::Point p = udg.point(u);
                batch.moves.push_back(
                    {u, {p.x + rng.uniform(-20.0, 20.0), p.y + rng.uniform(-20.0, 20.0)}});
            }
            const geom::Point p = udg.point(v);
            batch.moves.push_back(
                {v, {p.x + rng.uniform(-20.0, 20.0), p.y + rng.uniform(-20.0, 20.0)}});
            ASSERT_TRUE(service.enqueue(std::move(batch)));
            // Interleaved reads publish intermediate versions too.
            if (v % 3 == 0) (void)service.snapshot();
        }
    }
    service.drain();
    const SnapshotHandle latest = service.snapshot();
    ASSERT_GT(latest->version, held->version);
    ASSERT_NE(latest->udg.edges(), at_take.edges[0]) << "the batches changed nothing";

    const RecordedLists now = record_lists(*held);
    const char* const names[] = {"udg",        "cds",       "cds_prime",      "icds",
                                 "icds_prime", "ldel_icds", "ldel_icds_prime"};
    for (std::size_t i = 0; i < at_take.edges.size(); ++i) {
        EXPECT_EQ(now.edges[i], at_take.edges[i]) << names[i];
    }
    EXPECT_EQ(now.dominators, at_take.dominators);
    EXPECT_EQ(now.two_hop_dominators, at_take.two_hop_dominators);
    EXPECT_EQ(held->points, udg.points());
    EXPECT_EQ(snapshot_divergence(*held), "");
    EXPECT_EQ(snapshot_divergence(*latest), "");
    EXPECT_GT(service.stats().snapshot_ms_total, 0.0);
}

TEST(SpannerService, StopRejectsFurtherEnqueuesButDrainsBacklog) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 29);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    SpannerService service(engine, udg.points(), kRadius);

    rnd::Xoshiro256 rng(11);
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));
    }
    service.stop();
    service.stop();  // Idempotent.
    EXPECT_FALSE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));
    service.drain();  // Trivially satisfied — everything accepted was applied.

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_applied, 5u);   // Backlog drained before the join.
    EXPECT_EQ(stats.batches_enqueued, 5u);  // The rejected batch was uncounted.
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

TEST(SpannerService, ConcurrentProducersAndReadersSoak) {
    const std::size_t kProducers = 3;
    const std::size_t kBatchesPerProducer = 6;
    const std::size_t kReaders = 2;

    const auto udg = test::connected_udg(50, 200.0, kRadius, 43);
    ASSERT_GT(udg.node_count(), 0u);
    const std::size_t n = udg.node_count();
    const std::vector<geom::Point> initial = udg.points();

    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    SpannerService service(engine, initial, kRadius);

    std::atomic<bool> done{false};
    std::atomic<std::size_t> accepted{0};

    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            rnd::Xoshiro256 rng(1000 + p);
            for (std::size_t i = 0; i < kBatchesPerProducer; ++i) {
                if (service.enqueue(make_batch(rng, n, initial, 3))) ++accepted;
            }
        });
    }

    // Readers audit every snapshot they take: exact equality with a
    // from-scratch build on the snapshot's positions (atomicity), full
    // Lemma 1-8 trail (semantics), monotone versions (ordering).
    std::vector<std::thread> readers;
    std::vector<std::string> reader_errors(kReaders);
    for (std::size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            std::uint64_t last_version = 0;
            while (!done.load()) {
                const SnapshotHandle snap = service.snapshot();
                if (snap->version < last_version) {
                    reader_errors[r] = "version went backwards: " +
                                       std::to_string(snap->version) + " after " +
                                       std::to_string(last_version);
                    return;
                }
                last_version = snap->version;
                const std::string d = snapshot_divergence(*snap);
                if (!d.empty()) {
                    reader_errors[r] =
                        "snapshot v" + std::to_string(snap->version) + " diverged: " + d;
                    return;
                }
                verify::AuditOptions audit;
                audit.radius = snap->radius;
                const auto trail = verify::audit_backbone(snap->udg, snap->backbone, audit);
                if (!trail.pass()) {
                    reader_errors[r] = "snapshot v" + std::to_string(snap->version) +
                                       " failed audit:\n" + trail.summary();
                    return;
                }
                std::this_thread::yield();
            }
        });
    }

    for (auto& t : producers) t.join();
    service.drain();
    done = true;
    for (auto& t : readers) t.join();
    for (std::size_t r = 0; r < kReaders; ++r) {
        EXPECT_EQ(reader_errors[r], "") << "reader " << r;
    }

    EXPECT_EQ(accepted.load(), kProducers * kBatchesPerProducer);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_applied, accepted.load());
    EXPECT_EQ(stats.updates_applied, accepted.load() * 3);
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

// Shutdown races, exercised under the TSan job: stop() racing drain()
// and enqueue() from many threads must neither deadlock nor corrupt the
// accounting, and the documented contract holds — every enqueue that
// returned true before/through the race was applied, everything after
// stop() returns false.
TEST(SpannerService, StopRacesDrainAndEnqueue) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 61);
    ASSERT_GT(udg.node_count(), 0u);
    const std::size_t n = udg.node_count();
    const std::vector<geom::Point> initial = udg.points();

    for (int round = 0; round < 3; ++round) {
        engine::SpannerEngine engine(
            test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
        SpannerService service(engine, initial, kRadius);

        std::atomic<std::size_t> accepted{0};
        std::atomic<std::size_t> rejected{0};
        std::vector<std::thread> threads;
        for (std::size_t p = 0; p < 3; ++p) {
            threads.emplace_back([&, p] {
                rnd::Xoshiro256 rng(7000 + 10 * round + p);
                for (int i = 0; i < 8; ++i) {
                    if (service.enqueue(make_batch(rng, n, initial, 2))) {
                        ++accepted;
                    } else {
                        ++rejected;
                    }
                }
            });
        }
        threads.emplace_back([&] { service.drain(); });
        threads.emplace_back([&] { service.stop(); });
        for (auto& t : threads) t.join();

        // False-after-stop: once stop() returned, enqueue must refuse.
        rnd::Xoshiro256 rng(99);
        EXPECT_FALSE(service.enqueue(make_batch(rng, n, initial, 2)));
        service.drain();  // Trivially satisfied after the join.

        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.batches_applied, accepted.load());
        EXPECT_EQ(stats.batches_enqueued, accepted.load());
        EXPECT_EQ(stats.queue_depth, 0u);
        EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
    }
}

TEST(SpannerService, RejectBackpressureCountsDropsAndKeepsServing) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 33);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    ServiceOptions options;
    options.queue_capacity = 2;
    options.backpressure = BackpressurePolicy::kReject;
    // Park the worker so pushes pile up deterministically.
    std::atomic<bool> hold{true};
    options.apply_hook = [&](const dynamic::UpdateBatch&) {
        while (hold.load()) std::this_thread::yield();
    };
    SpannerService service(engine, udg.points(), kRadius, options);

    rnd::Xoshiro256 rng(3);
    std::size_t accepted = 0;
    std::size_t refused = 0;
    for (int i = 0; i < 8; ++i) {
        if (service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2))) {
            ++accepted;
        } else {
            ++refused;
        }
    }
    EXPECT_GE(refused, 8u - 3u);  // 1 in flight + 2 queued at most.
    hold = false;
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_rejected, refused);
    EXPECT_EQ(stats.batches_applied, accepted);
    EXPECT_EQ(stats.batches_enqueued, accepted);
    EXPECT_EQ(stats.queue_capacity, 2u);
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

TEST(SpannerService, CoalesceBackpressureMergesMoveOnlyBatches) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 37);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    ServiceOptions options;
    options.queue_capacity = 1;
    options.backpressure = BackpressurePolicy::kCoalesce;
    std::atomic<bool> hold{true};
    options.apply_hook = [&](const dynamic::UpdateBatch&) {
        while (hold.load()) std::this_thread::yield();
    };
    SpannerService service(engine, udg.points(), kRadius, options);

    rnd::Xoshiro256 rng(5);
    // First batch occupies the worker; the next fills the queue; the
    // rest coalesce into it. All count as enqueued and all drain.
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));
    }
    const ServiceStats mid = service.stats();
    EXPECT_GE(mid.batches_coalesced, 3u);
    hold = false;
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_enqueued, 6u);
    EXPECT_EQ(stats.updates_applied, 12u);  // Every move landed exactly once.
    EXPECT_EQ(stats.batches_applied + stats.batches_coalesced, 6u);
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

TEST(SpannerService, PoisonedBatchIsQuarantinedBeforeApply) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 41);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    SpannerService service(engine, udg.points(), kRadius);

    rnd::Xoshiro256 rng(9);
    ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));

    dynamic::UpdateBatch poisoned;
    poisoned.moves.push_back(
        {0, {std::numeric_limits<double>::quiet_NaN(), 0.0}});
    ASSERT_TRUE(service.enqueue(std::move(poisoned)));  // Accepted, then caught.

    dynamic::UpdateBatch out_of_range;
    out_of_range.leaves.push_back(static_cast<NodeId>(udg.node_count() + 7));
    ASSERT_TRUE(service.enqueue(std::move(out_of_range)));

    ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_enqueued, 4u);
    EXPECT_EQ(stats.batches_applied, 2u);      // The healthy ones.
    EXPECT_EQ(stats.batches_quarantined, 2u);  // The poisoned ones.
    EXPECT_EQ(stats.version, 2u);  // Pre-apply catches publish nothing.

    const auto reports = service.quarantine_reports();
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_NE(reports[0].reason.find("non-finite"), std::string::npos);
    EXPECT_FALSE(reports[0].rolled_back);
    EXPECT_NE(reports[1].reason.find("nonexistent"), std::string::npos);

    // The service kept serving: the final state is exactly the two
    // healthy batches applied to the initial topology.
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

TEST(SpannerService, HostileCoordinatesAreRefused) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 43);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));

    auto hostile = udg.points();
    hostile.push_back({std::numeric_limits<double>::infinity(), 0.0});
    EXPECT_THROW(SpannerService(engine, hostile, kRadius), std::invalid_argument);

    // A finite move past the grid bound is quarantined by the same
    // predicate the constructor applies.
    SpannerService service(engine, udg.points(), kRadius);
    dynamic::UpdateBatch far_move;
    far_move.moves.push_back({0, {kRadius * 0x1p62, 0.0}});
    ASSERT_TRUE(service.enqueue(std::move(far_move)));
    service.drain();
    EXPECT_EQ(service.stats().batches_quarantined, 1u);
    const auto reports = service.quarantine_reports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_NE(reports[0].reason.find("out-of-range"), std::string::npos);
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

}  // namespace
}  // namespace geospanner::service
