// Incremental maintenance engine: every patched topology must be
// edge-for-edge identical to a from-scratch build on the same positions,
// across moves, joins, leaves, both cluster policies, and forced
// fallbacks — plus trace-replay fuzzing with ddmin shrinking and the
// Lemma 1-8 auditors on patched outputs.
#include "dynamic/spanner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "core/workload.h"
#include "dynamic/dynamic_cell_grid.h"
#include "dynamic_test_util.h"
#include "proximity/udg.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner::dynamic {
namespace {

using graph::GeometricGraph;
using graph::NodeId;
using protocol::ClusterPolicy;
using test::divergence;

engine::EngineOptions engine_options(ClusterPolicy policy) {
    return test::dynamic_engine_options(policy);
}

/// Deterministic mixed trace (random-walk moves, periodic joins) over an
/// initial point set: returns the name of the first diverging structure,
/// "" if the whole replay stays identical. Pure function of its inputs —
/// the ddmin shrinker replays it on candidate subsets.
std::string replay_divergence(const std::vector<geom::Point>& initial, double radius,
                              std::uint64_t seed, ClusterPolicy policy, int steps,
                              bool with_joins) {
    if (initial.empty()) return {};
    engine::SpannerEngine engine(engine_options(policy));
    DynamicSpanner dyn(engine, initial, radius);
    {
        const std::string d = divergence(dyn, policy);
        if (!d.empty()) return "initial-build:" + d;
    }
    rnd::Xoshiro256 rng(seed);
    for (int step = 0; step < steps; ++step) {
        UpdateBatch batch;
        const std::size_t k = 1 + rng.below(3);
        for (std::size_t i = 0; i < k; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point p = dyn.positions()[v];
            batch.moves.push_back(
                {v,
                 {p.x + rng.uniform(-radius, radius), p.y + rng.uniform(-radius, radius)}});
        }
        if (with_joins && step % 4 == 3) {
            const geom::Point anchor = dyn.positions()[rng.below(dyn.node_count())];
            batch.joins.push_back({anchor.x + rng.uniform(-radius, radius),
                                   anchor.y + rng.uniform(-radius, radius)});
        }
        dyn.apply(batch);
        const std::string d = divergence(dyn, policy);
        if (!d.empty()) return "step" + std::to_string(step) + ":" + d;
    }
    return {};
}

TEST(DynamicCellGrid, TracksRelocationsExactly) {
    const double radius = 50.0;
    auto points = test::random_points(80, 300.0, 17);
    DynamicCellGrid grid(points, radius);
    rnd::Xoshiro256 rng(99);
    for (int step = 0; step < 200; ++step) {
        const auto v = static_cast<NodeId>(rng.below(points.size()));
        const geom::Point to = {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        grid.relocate(v, points[v], to);
        points[v] = to;
        if (step % 3 == 0) {
            const auto id = static_cast<NodeId>(points.size());
            points.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
            grid.insert(id, points.back());
        }
    }
    CellBuckets want;
    for (NodeId v = 0; v < points.size(); ++v) {
        want[proximity::cell_of(points[v], radius)].push_back(v);
    }
    ASSERT_EQ(grid.cells(), want);
    // Neighborhood enumeration equals a brute-force range scan.
    std::vector<NodeId> got;
    for (NodeId v = 0; v < points.size(); ++v) {
        got.clear();
        grid.collect_neighbors(points, radius, v, got);
        std::vector<NodeId> want;
        for (NodeId u = 0; u < points.size(); ++u) {
            if (u != v &&
                geom::squared_distance(points[u], points[v]) <= radius * radius) {
                want.push_back(u);
            }
        }
        ASSERT_EQ(got, want) << "node " << v;
    }
}

TEST(DynamicSpanner, InitialBuildMatchesReference) {
    for (const auto& param : test::standard_sweep()) {
        for (const ClusterPolicy policy :
             {ClusterPolicy::kLowestId, ClusterPolicy::kHighestDegree}) {
            const auto udg = test::connected_udg(param.n, 200.0, param.radius, param.seed);
            ASSERT_GT(udg.node_count(), 0u);
            engine::SpannerEngine engine(engine_options(policy));
            DynamicSpanner dyn(engine, udg.points(), param.radius);
            EXPECT_EQ(divergence(dyn, policy), "")
                << "n=" << param.n << " r=" << param.radius << " seed=" << param.seed;
        }
    }
}

TEST(DynamicSpanner, ConstructionRejectsHostileCoordinates) {
    engine::SpannerEngine engine(engine_options(ClusterPolicy::kLowestId));
    const std::vector<geom::Point> nan_point = {
        {0.0, 0.0}, {std::numeric_limits<double>::quiet_NaN(), 1.0}};
    EXPECT_THROW(DynamicSpanner(engine, nan_point, 50.0), std::invalid_argument);
    const std::vector<geom::Point> far_point = {{0.0, 0.0}, {50.0 * 0x1p62, 0.0}};
    EXPECT_THROW(DynamicSpanner(engine, far_point, 50.0), std::invalid_argument);
}

TEST(DynamicSpanner, SingleMovesMatchReference) {
    for (const auto& param : test::standard_sweep()) {
        const auto udg = test::connected_udg(param.n, 200.0, param.radius, param.seed);
        ASSERT_GT(udg.node_count(), 0u);
        engine::SpannerEngine engine(engine_options(ClusterPolicy::kLowestId));
        DynamicSpanner dyn(engine, udg.points(), param.radius);
        rnd::Xoshiro256 rng(param.seed * 1000003);
        for (int step = 0; step < 12; ++step) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point p = dyn.positions()[v];
            UpdateBatch batch;
            batch.moves.push_back({v,
                                   {p.x + rng.uniform(-param.radius, param.radius),
                                    p.y + rng.uniform(-param.radius, param.radius)}});
            dyn.apply(batch);
            ASSERT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "")
                << "n=" << param.n << " r=" << param.radius << " seed=" << param.seed
                << " step=" << step;
        }
    }
}

TEST(DynamicSpanner, BatchedMovesMatchReferenceUnderBothPolicies) {
    for (const ClusterPolicy policy :
         {ClusterPolicy::kLowestId, ClusterPolicy::kHighestDegree}) {
        const auto udg = test::connected_udg(70, 200.0, 55.0, 31);
        ASSERT_GT(udg.node_count(), 0u);
        engine::SpannerEngine engine(engine_options(policy));
        DynamicSpanner dyn(engine, udg.points(), 55.0);
        rnd::Xoshiro256 rng(4242);
        for (int step = 0; step < 10; ++step) {
            UpdateBatch batch;
            for (int i = 0; i < 5; ++i) {
                const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
                const geom::Point p = dyn.positions()[v];
                batch.moves.push_back({v,
                                       {p.x + rng.uniform(-30.0, 30.0),
                                        p.y + rng.uniform(-30.0, 30.0)}});
            }
            dyn.apply(batch);
            ASSERT_EQ(divergence(dyn, policy), "") << "step " << step;
        }
    }
}

TEST(DynamicSpanner, JoinsMatchReference) {
    const auto udg = test::connected_udg(50, 200.0, 60.0, 7);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options(ClusterPolicy::kLowestId));
    DynamicSpanner dyn(engine, udg.points(), 60.0);
    rnd::Xoshiro256 rng(512);
    for (int step = 0; step < 8; ++step) {
        UpdateBatch batch;
        const geom::Point anchor = dyn.positions()[rng.below(dyn.node_count())];
        batch.joins.push_back(
            {anchor.x + rng.uniform(-50.0, 50.0), anchor.y + rng.uniform(-50.0, 50.0)});
        const std::size_t before = dyn.node_count();
        dyn.apply(batch);
        ASSERT_EQ(dyn.node_count(), before + 1);
        ASSERT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "") << "step " << step;
    }
}

TEST(DynamicSpanner, LeavesFallBackAndMatchReference) {
    const auto udg = test::connected_udg(50, 200.0, 60.0, 19);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options(ClusterPolicy::kLowestId));
    DynamicSpanner dyn(engine, udg.points(), 60.0);
    rnd::Xoshiro256 rng(77);
    for (int step = 0; step < 5; ++step) {
        UpdateBatch batch;
        batch.leaves.push_back(static_cast<NodeId>(rng.below(dyn.node_count())));
        const std::size_t before = dyn.node_count();
        const PatchStats stats = dyn.apply(batch);
        EXPECT_TRUE(stats.fell_back);
        EXPECT_FALSE(stats.over_cap);
        ASSERT_EQ(dyn.node_count(), before - 1);
        ASSERT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "") << "step " << step;
    }
}

TEST(DynamicSpanner, ForcedFallbackStaysIdentical) {
    // A batch that moves every node exceeds the region gate after the
    // UDG stage already patched state; the rebuild must still land on
    // the from-scratch topology.
    struct Input {
        std::size_t n;
        double side, radius;
        std::uint64_t seed;
    };
    for (const Input in : {Input{40, 150.0, 55.0, 23}, Input{100, 280.0, 50.0, 37}}) {
        const auto udg = test::connected_udg(in.n, in.side, in.radius, in.seed);
        ASSERT_GT(udg.node_count(), 0u);
        engine::SpannerEngine engine(engine_options(ClusterPolicy::kLowestId));
        DynamicSpanner dyn(engine, udg.points(), in.radius);
        rnd::Xoshiro256 rng(in.seed * 5);
        for (int step = 0; step < 3; ++step) {
            UpdateBatch batch;
            for (NodeId v = 0; v < dyn.node_count(); ++v) {
                const geom::Point p = dyn.positions()[v];
                batch.moves.push_back(
                    {v, {p.x + rng.uniform(-20.0, 20.0), p.y + rng.uniform(-20.0, 20.0)}});
            }
            const PatchStats stats = dyn.apply(batch);
            EXPECT_TRUE(stats.fell_back) << "n=" << in.n << " step " << step;
            EXPECT_TRUE(stats.over_cap) << "n=" << in.n << " step " << step;
            ASSERT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "")
                << "n=" << in.n << " step " << step;
        }
    }
}

TEST(DynamicSpanner, ApplyRefusesBadBatchesBeforeChangingState) {
    const double radius = 50.0;
    const auto udg = test::connected_udg(40, 150.0, radius, 11);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options(ClusterPolicy::kLowestId));
    DynamicSpanner dyn(engine, udg.points(), radius);
    const auto n = static_cast<NodeId>(dyn.node_count());
    const std::vector<geom::Point> positions = dyn.positions();
    const GeometricGraph before_udg = dyn.udg();
    const core::Backbone before = dyn.backbone();

    // Each bad update rides behind a valid move: the whole batch must be
    // refused, not applied up to the bad update.
    std::vector<UpdateBatch> bad(4);
    for (UpdateBatch& batch : bad) batch.moves.push_back({0, {1.0, 1.0}});
    bad[0].moves.push_back({1, {std::numeric_limits<double>::quiet_NaN(), 0.0}});
    bad[1].joins.push_back({radius * 0x1p62, 0.0});
    bad[2].moves.push_back({n, {0.0, 0.0}});
    bad[3].leaves = {0, n - 1};  // the second leave sees n - 1 nodes
    for (std::size_t i = 0; i < bad.size(); ++i) {
        EXPECT_THROW(dyn.apply(bad[i]), std::invalid_argument) << "batch " << i;
        ASSERT_EQ(dyn.positions(), positions) << "batch " << i;
        ASSERT_TRUE(dyn.udg() == before_udg) << "batch " << i;
        ASSERT_EQ(test::backbone_diff(dyn.backbone(), before), "") << "batch " << i;
    }
    UpdateBatch good;
    good.moves.push_back({0, {positions[0].x + 5.0, positions[0].y}});
    dyn.apply(good);
    EXPECT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "");
}

TEST(DynamicSpanner, PatchedOutputsPassLemmaAudits) {
    const double radius = 60.0;
    const auto udg = test::connected_udg(60, 200.0, radius, 41);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options(ClusterPolicy::kLowestId));
    DynamicSpanner dyn(engine, udg.points(), radius);
    rnd::Xoshiro256 rng(8);
    for (int step = 0; step < 6; ++step) {
        UpdateBatch batch;
        for (int i = 0; i < 3; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point p = dyn.positions()[v];
            batch.moves.push_back(
                {v, {p.x + rng.uniform(-25.0, 25.0), p.y + rng.uniform(-25.0, 25.0)}});
        }
        dyn.apply(batch);
        verify::AuditOptions audit;
        audit.radius = radius;
        const auto trail = verify::audit_backbone(dyn.udg(), dyn.backbone(), audit);
        ASSERT_TRUE(trail.pass()) << "step " << step << "\n" << trail.summary();
    }
}

TEST(DynamicSpanner, PatchStatsReportLocalizedWork) {
    const auto udg = test::connected_udg(90, 260.0, 50.0, 47);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options(ClusterPolicy::kLowestId));
    DynamicSpanner dyn(engine, udg.points(), 50.0);
    const geom::Point p = dyn.positions()[5];
    UpdateBatch batch;
    batch.moves.push_back({5, {p.x + 1.0, p.y + 1.0}});
    const PatchStats stats = dyn.apply(batch);
    if (!stats.fell_back) {
        EXPECT_LT(stats.dirty_nodes, dyn.node_count());
        EXPECT_FALSE(stats.pipeline.stages.empty());
    }
    EXPECT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "");
}

// Under Planarizer::kLdel2 the constructor's state and every batch's
// (each takes the full rebuild) must be LDel²(ICDS), the centralized
// build with the same planarizer — not the LDel¹ + Algorithm 3
// planarization the incremental kernels maintain.
TEST(DynamicSpanner, Ldel2PlanarizerMatchesCentralizedBuild) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        core::WorkloadConfig config;
        config.node_count = 600;
        config.radius = 60.0;
        config.side = config.radius * std::sqrt(600.0 * 3.14159265358979 / 12.0);
        config.seed = seed;
        engine::EngineOptions opts = engine_options(ClusterPolicy::kLowestId);
        opts.planarizer = core::Planarizer::kLdel2;
        engine::SpannerEngine engine(opts);
        DynamicSpanner dyn(engine, core::uniform_points(config), config.radius);
        const auto ldel2_divergence = [&] {
            const GeometricGraph udg = proximity::build_udg(dyn.positions(), dyn.radius());
            if (!(udg == dyn.udg())) return std::string("udg");
            core::BuildOptions build;
            build.engine = core::Engine::kCentralized;
            build.planarizer = core::Planarizer::kLdel2;
            return test::backbone_diff(dyn.backbone(), core::build_backbone(udg, build));
        };
        ASSERT_EQ(ldel2_divergence(), "") << "seed " << seed << " construction";
        rnd::Xoshiro256 rng(seed * 31);
        for (int step = 0; step < 4; ++step) {
            UpdateBatch batch;
            for (int i = 0; i < 6; ++i) {
                const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
                const geom::Point p = dyn.positions()[v];
                batch.moves.push_back(
                    {v, {p.x + rng.uniform(-20.0, 20.0), p.y + rng.uniform(-20.0, 20.0)}});
            }
            if (step % 2 == 1) {
                const geom::Point anchor = dyn.positions()[rng.below(dyn.node_count())];
                batch.joins.push_back({anchor.x + 10.0, anchor.y - 10.0});
            }
            EXPECT_TRUE(dyn.apply(batch).fell_back);
            ASSERT_EQ(ldel2_divergence(), "") << "seed " << seed << " step " << step;
        }
    }
}

// Patching at a size where the owner-list kernels split over lanes,
// interleaved with fallbacks whose reseeded state the next batches
// patch: after every batch the state equals the centralized build, and
// it is the same at 1, 2 and 8 lanes.
TEST(DynamicSpanner, PatchesAtScaleAcrossFallbacksAndLanes) {
    constexpr std::size_t kNodes = 3500;
    core::WorkloadConfig config;
    config.node_count = kNodes;
    config.radius = 60.0;
    config.side = config.radius * std::sqrt(static_cast<double>(kNodes) * 3.14159265358979 / 12.0);
    config.seed = 5;
    // Schedule: 32-move batches, single-leave batches (fallback) and one
    // batch moving every node (over the rebuild cap).
    enum class Kind { kMoves, kLeave, kOverCap };
    const Kind schedule[] = {Kind::kMoves,   Kind::kLeave, Kind::kMoves, Kind::kMoves,
                             Kind::kOverCap, Kind::kMoves, Kind::kLeave, Kind::kMoves};
    for (const bool clustered : {false, true}) {
        const auto points =
            clustered ? core::clustered_points(config, kNodes / 100) : core::uniform_points(config);
        for (const ClusterPolicy policy :
             {ClusterPolicy::kLowestId, ClusterPolicy::kHighestDegree}) {
            const std::string where = std::string(clustered ? "clustered" : "uniform") +
                                      (policy == ClusterPolicy::kLowestId ? " lowest-id"
                                                                          : " highest-degree");
            std::vector<std::unique_ptr<engine::SpannerEngine>> engines;
            std::vector<std::unique_ptr<DynamicSpanner>> spanners;
            for (const std::size_t lanes : {1, 2, 8}) {
                engines.push_back(std::make_unique<engine::SpannerEngine>(
                    test::dynamic_engine_options(policy, lanes)));
                spanners.push_back(
                    std::make_unique<DynamicSpanner>(*engines.back(), points, config.radius));
            }
            rnd::Xoshiro256 rng(clustered ? 71 : 72);
            std::size_t patched = 0;
            for (std::size_t step = 0; step < std::size(schedule); ++step) {
                const DynamicSpanner& lead = *spanners.front();
                UpdateBatch batch;
                const auto jitter = [&](NodeId v, double step_len) {
                    const geom::Point p = lead.positions()[v];
                    batch.moves.push_back({v,
                                           {p.x + rng.uniform(-step_len, step_len),
                                            p.y + rng.uniform(-step_len, step_len)}});
                };
                if (schedule[step] == Kind::kMoves) {
                    for (int i = 0; i < 32; ++i) {
                        jitter(static_cast<NodeId>(rng.below(lead.node_count())), 4.0);
                    }
                } else if (schedule[step] == Kind::kLeave) {
                    batch.leaves.push_back(static_cast<NodeId>(rng.below(lead.node_count())));
                } else {
                    for (NodeId v = 0; v < lead.node_count(); ++v) jitter(v, 1.0);
                }
                for (const auto& dyn : spanners) {
                    const PatchStats stats = dyn->apply(batch);
                    if (schedule[step] != Kind::kMoves) {
                        EXPECT_TRUE(stats.fell_back) << where << " step " << step;
                    } else if (dyn == spanners.front() && !stats.fell_back) {
                        ++patched;
                    }
                }
                ASSERT_EQ(divergence(lead, policy), "") << where << " step " << step;
                for (std::size_t k = 1; k < spanners.size(); ++k) {
                    ASSERT_TRUE(spanners[k]->udg() == lead.udg()) << where << " step " << step;
                    ASSERT_EQ(test::backbone_diff(spanners[k]->backbone(), lead.backbone()), "")
                        << where << " step " << step << " lanes index " << k;
                }
            }
            EXPECT_GE(patched, 3u) << where << ": move batches must stay incremental";
        }
    }
}

// Trace-replay fuzz across the generator family: any divergence is
// ddmin-shrunk to a minimal point set and dumped as a repro artifact.
TEST(DynamicFuzz, TraceReplayAcrossGenerators) {
    for (const auto mode : test::all_fuzz_modes()) {
        for (const std::uint64_t seed : {1ULL, 2ULL}) {
            core::WorkloadConfig config;
            config.node_count = 36;
            config.side = 170.0;
            config.radius = 50.0;
            config.seed = seed;
            const auto points = test::fuzz_points(mode, config);
            for (const ClusterPolicy policy :
                 {ClusterPolicy::kLowestId, ClusterPolicy::kHighestDegree}) {
                const auto fails = [&](const std::vector<geom::Point>& pts) {
                    return !replay_divergence(pts, config.radius, seed * 7919 + 1,
                                              policy, 10, true)
                                .empty();
                };
                if (!fails(points)) continue;
                const auto shrunk = test::shrink_points(points, fails);
                io::ReproCase repro;
                repro.seed = seed;
                repro.mode = std::string("dynamic_") + test::fuzz_mode_name(mode);
                repro.radius = config.radius;
                repro.failed_check =
                    "incremental_equivalence:" +
                    replay_divergence(shrunk, config.radius, seed * 7919 + 1, policy,
                                      10, true);
                repro.points = shrunk;
                const auto path = test::dump_repro(repro);
                ADD_FAILURE() << "incremental replay diverged (mode="
                              << test::fuzz_mode_name(mode) << ", seed=" << seed
                              << ", policy="
                              << (policy == ClusterPolicy::kLowestId ? "lowest-id"
                                                                     : "highest-degree")
                              << "): " << repro.failed_check
                              << "\nshrunk to " << shrunk.size()
                              << " points; repro: " << path;
            }
        }
    }
}

}  // namespace
}  // namespace geospanner::dynamic
