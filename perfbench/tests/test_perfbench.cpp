// Tests of the benchmark's own statistics and load bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/workload.h"
#include "dynamic/spanner.h"
#include "engine/engine.h"
#include "load.h"
#include "service/service.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using geospanner::dynamic::UpdateBatch;
using geospanner::geom::Point;

std::vector<Point> small_world(std::size_t n, std::uint64_t seed) {
    geospanner::core::WorkloadConfig config;
    config.node_count = n;
    config.radius = 1.0;
    config.side = std::sqrt(static_cast<double>(n) * 3.141592653589793 / 12.0);
    config.seed = seed;
    return geospanner::core::uniform_points(config);
}

TEST(TailRule, PercentileNeedsTenSamplesBeyondIt) {
    EXPECT_TRUE(percentile_supported(1000, 99.0));
    EXPECT_FALSE(percentile_supported(999, 99.0));
    EXPECT_TRUE(percentile_supported(100, 90.0));
    EXPECT_FALSE(percentile_supported(99, 90.0));
    EXPECT_TRUE(percentile_supported(10000, 99.9));
    EXPECT_FALSE(percentile_supported(9999, 99.9));
    EXPECT_TRUE(percentile_supported(20, 50.0));
    EXPECT_FALSE(percentile_supported(19, 50.0));
}

TEST(TailRule, HighestSupportedPercentile) {
    EXPECT_EQ(highest_supported_percentile(0), 0.0);
    EXPECT_EQ(highest_supported_percentile(19), 0.0);
    EXPECT_EQ(highest_supported_percentile(20), 50.0);
    EXPECT_EQ(highest_supported_percentile(40), 75.0);
    EXPECT_EQ(highest_supported_percentile(999), 90.0);
    EXPECT_EQ(highest_supported_percentile(1000), 99.0);
    EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(TailRule, SummaryReportsTheSupportedTail) {
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i) samples.push_back(i);
    const Summary s = summarize(samples);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 50.5);
    EXPECT_EQ(s.tail_pct, 90.0);
    EXPECT_NEAR(s.tail, 90.1, 1e-9);
    EXPECT_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(LogHistogram, QuantilesTrackTheExactValuesWithinABucket) {
    LogHistogram h;
    EXPECT_EQ(h.quantile(0.5), 0.0);
    std::vector<double> samples;
    for (int i = 1; i <= 10000; ++i) samples.push_back(0.001 * i);  // 1 us .. 10 ms
    for (const double v : samples) h.add(v);
    EXPECT_EQ(h.count(), samples.size());
    EXPECT_NEAR(h.sum(), 50005.0, 1e-6);
    EXPECT_EQ(h.max(), 10.0);
    for (const double q : {0.01, 0.5, 0.9, 0.99}) {
        const double exact = quantile(samples, q);
        EXPECT_NEAR(h.quantile(q) / exact, 1.0, 0.011) << "q=" << q;
    }
    h.add(1e9);  // beyond the range: counted in the last bucket
    EXPECT_EQ(h.max(), 1e9);
    EXPECT_GT(h.quantile(1.0), 1e6);
}

TEST(OpenLoop, LatencyCountsFromDueTimeNotSendTime) {
    OpenLoopLog log(3, 100.0, 10.0);  // due at 100, 110, 120
    log.record_send(0, 100.5);
    log.record_send(1, 135.0);  // producer stalled 25 ms
    log.record_send(2, 119.0);  // early sends count as zero lag
    log.record_visible(0, 120.0);
    log.record_visible(1, 150.0);
    log.record_visible(1, 170.0);  // a later sighting does not move it
    EXPECT_EQ(log.lag_ms(), (std::vector<double>{0.5, 25.0, 0.0}));
    // Batch 1 is charged the stall: 150 - 110, not 150 - 135.
    EXPECT_EQ(log.publish_ms(), (std::vector<double>{20.0, 40.0}));
}

TEST(Visibility, VersionsMapToBatchesInOrder) {
    VersionTracker tracker(5, 4);
    EXPECT_EQ(tracker.observe(5), (std::pair<std::size_t, std::size_t>{0, 0}));
    EXPECT_EQ(tracker.observe(7), (std::pair<std::size_t, std::size_t>{0, 2}));
    EXPECT_EQ(tracker.observe(7), (std::pair<std::size_t, std::size_t>{2, 2}));
    EXPECT_EQ(tracker.observe(6), (std::pair<std::size_t, std::size_t>{2, 2}));
    EXPECT_EQ(tracker.observe(100), (std::pair<std::size_t, std::size_t>{2, 4}));
    EXPECT_EQ(tracker.visible(), 4u);
}

TEST(Visibility, ServicePublishesOneVersionPerBatch) {
    const auto points = small_world(300, 3);
    geospanner::engine::EngineOptions options;
    options.threads = 2;
    geospanner::engine::SpannerEngine engine(options);
    geospanner::service::SpannerService svc(engine, points, 1.0);
    const std::uint64_t base = svc.snapshot()->version;

    ScheduleConfig config;
    config.batches = 5;
    config.moves_per_batch = 4;
    config.step = 0.25;
    config.seed = 11;
    const auto schedule = make_schedule(points, config);
    VersionTracker tracker(base, schedule.size());
    for (std::size_t k = 0; k < schedule.size(); ++k) {
        ASSERT_TRUE(svc.enqueue(schedule[k]));
        svc.drain();
        const auto [first, last] = tracker.observe(svc.snapshot()->version);
        EXPECT_EQ(first, k);
        EXPECT_EQ(last, k + 1);
    }
}

TEST(Schedule, MobilityMovesStayOnTheStepCircleAroundHome) {
    const auto points = small_world(200, 5);
    ScheduleConfig config;
    config.batches = 20;
    config.moves_per_batch = 8;
    config.step = 0.25;
    config.seed = 9;
    const auto schedule = make_schedule(points, config);
    ASSERT_EQ(schedule.size(), 20u);
    for (const UpdateBatch& batch : schedule) {
        EXPECT_EQ(batch.moves.size(), 8u);
        EXPECT_TRUE(batch.joins.empty());
        EXPECT_TRUE(batch.leaves.empty());
        for (const auto& move : batch.moves) {
            const Point home = points[move.node];
            EXPECT_NEAR(std::hypot(move.to.x - home.x, move.to.y - home.y), 0.25, 1e-12);
        }
    }
}

TEST(Schedule, SameSeedSameSchedule) {
    const auto points = small_world(100, 5);
    ScheduleConfig config;
    config.batches = 10;
    config.churn = true;
    config.side = 5.0;
    config.seed = 21;
    const auto a = make_schedule(points, config);
    const auto b = make_schedule(points, config);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k].moves.size(), b[k].moves.size());
        for (std::size_t i = 0; i < a[k].moves.size(); ++i) {
            EXPECT_EQ(a[k].moves[i].node, b[k].moves[i].node);
            EXPECT_EQ(a[k].moves[i].to, b[k].moves[i].to);
        }
        EXPECT_EQ(a[k].joins, b[k].joins);
        EXPECT_EQ(a[k].leaves, b[k].leaves);
    }
}

TEST(ChurnMirror, NeverSendsADeadId) {
    // A tiny world makes the joiner's id (the largest) and the
    // swap-remove compaction come up constantly.
    const auto points = small_world(6, 7);
    ScheduleConfig config;
    config.batches = 2000;
    config.moves_per_batch = 4;
    config.churn = true;
    config.side = 2.0;
    config.seed = 13;
    const auto schedule = make_schedule(points, config);
    ASSERT_EQ(schedule.size(), 2000u);
    std::vector<Point> mirror = points;
    for (const UpdateBatch& batch : schedule) ASSERT_TRUE(apply_batch(mirror, nullptr, batch));
    // One join and one leave per batch keep n fixed, so the joiner's id
    // is always points.size().
    bool leaver_was_joiner = false;
    for (const UpdateBatch& batch : schedule) {
        ASSERT_EQ(batch.joins.size(), 1u);
        ASSERT_EQ(batch.leaves.size(), 1u);
        leaver_was_joiner = leaver_was_joiner || batch.leaves[0] == points.size();
    }
    EXPECT_TRUE(leaver_was_joiner);
}

TEST(ChurnMirror, DetectsADeadId) {
    UpdateBatch ok;
    ok.joins.push_back({0.0, 0.0});
    ok.leaves.push_back(3);  // the joiner: ids 0..3 live after the join
    UpdateBatch dead;
    dead.moves.push_back({3, {1.0, 1.0}});  // only 0..2 remain
    std::vector<Point> positions(3, Point{0.0, 0.0});
    EXPECT_TRUE(apply_batch(positions, nullptr, ok));
    EXPECT_FALSE(apply_batch(positions, nullptr, dead));
}

TEST(ChurnMirror, MatchesTheSpannersIdCompaction) {
    const auto points = small_world(150, 17);
    ScheduleConfig config;
    config.batches = 12;
    config.moves_per_batch = 6;
    config.churn = true;
    config.side = std::sqrt(150 * 3.141592653589793 / 12.0);
    config.seed = 19;
    const auto schedule = make_schedule(points, config);
    geospanner::engine::EngineOptions options;
    options.threads = 1;
    geospanner::engine::SpannerEngine engine(options);
    geospanner::dynamic::DynamicSpanner spanner(engine, points, 1.0);
    std::vector<Point> mirror = points;
    for (const UpdateBatch& batch : schedule) {
        (void)spanner.apply(batch);
        ASSERT_TRUE(apply_batch(mirror, nullptr, batch));
        ASSERT_EQ(spanner.positions(), mirror);
    }
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
    Tracer tracer(true, 1);
    const int root = tracer.add("root", 0.0, 100.0, -1, 1);
    tracer.add("a", 10.0, 30.0, root, 1);
    tracer.add("b", 20.0, 50.0, root, 1);   // overlaps a
    tracer.add("c", 80.0, 120.0, root, 1);  // clipped to the parent
    const std::vector<double> self = tracer.self_ms();
    ASSERT_EQ(self.size(), 4u);
    EXPECT_NEAR(self[0], 0.040, 1e-12);  // 100 - [10,50] - [80,100] = 40 us
    EXPECT_NEAR(self[1], 0.020, 1e-12);
    EXPECT_NEAR(self[3], 0.040, 1e-12);
    EXPECT_NEAR(tracer.self_ms_by_name().at("root"), 0.040, 1e-12);
}

TEST(Trace, DisabledTracerRecordsNothingAndExportIsChromeJson) {
    Tracer off(false, 1);
    EXPECT_EQ(off.begin("x", -1, 0), -1);
    off.end(-1);
    { const ScopedSpan s(off, "y", -1, 0); }
    EXPECT_TRUE(off.spans().empty());

    Tracer on(true, 2);
    const int parent = on.begin("outer", -1, 7);
    { const ScopedSpan s(on, "inner", parent, 7); }
    on.end(parent);
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, 0);
    EXPECT_LE(on.spans()[0].start_us, on.spans()[1].start_us);
    EXPECT_GE(on.spans()[0].end_us, on.spans()[1].end_us);
    const std::string json = chrome_trace_json({&off, &on});
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"inner\",\"ph\":\"X\",\"pid\":1,\"tid\":2"),
              std::string::npos);
    EXPECT_NE(json.find("\"parent\":0,\"request\":7"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
