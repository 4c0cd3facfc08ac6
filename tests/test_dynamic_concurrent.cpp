// Patching on the engine pool: the TEST_P sweep drives the patch kernels
// across instance shapes × seeds × batch sizes × thread counts and holds
// every patched topology to edge-for-edge identity with a from-scratch
// build. Thread-count determinism is pinned directly, and a move racing
// a leave of an adjacent node must stay exact through the fallback path.
#include "dynamic/spanner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "dynamic_test_util.h"
#include "proximity/udg.h"
#include "test_util.h"

namespace geospanner::dynamic {
namespace {

using graph::NodeId;
using protocol::ClusterPolicy;
using test::divergence;

/// One sweep point: instance shape, generator seed, updates per batch,
/// worker threads in the engine pool.
struct ConcurrentParam {
    test::FuzzMode mode;
    std::uint64_t seed;
    std::size_t batch;
    std::size_t threads;
};

std::string param_name(const testing::TestParamInfo<ConcurrentParam>& info) {
    return std::string(test::fuzz_mode_name(info.param.mode)) + "_seed" +
           std::to_string(info.param.seed) + "_batch" +
           std::to_string(info.param.batch) + "_threads" +
           std::to_string(info.param.threads);
}

std::vector<ConcurrentParam> sweep() {
    std::vector<ConcurrentParam> params;
    for (const test::FuzzMode mode :
         {test::FuzzMode::kUniform, test::FuzzMode::kClustered, test::FuzzMode::kGrid}) {
        for (const std::uint64_t seed : {3ULL, 59ULL}) {
            for (const std::size_t batch : {1u, 8u, 32u, 128u}) {
                for (const std::size_t threads : {1u, 2u, 8u}) {
                    params.push_back({mode, seed, batch, threads});
                }
            }
        }
    }
    return params;
}

class DynamicConcurrent : public testing::TestWithParam<ConcurrentParam> {};

INSTANTIATE_TEST_SUITE_P(Sweep, DynamicConcurrent, testing::ValuesIn(sweep()),
                         param_name);

TEST_P(DynamicConcurrent, PatchedTopologyMatchesReference) {
    const ConcurrentParam& p = GetParam();
    core::WorkloadConfig config;
    config.node_count = 90;
    config.side = 260.0;
    config.radius = 50.0;
    config.seed = p.seed;
    const auto points = test::fuzz_points(p.mode, config);
    ASSERT_FALSE(points.empty());

    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, p.threads));
    DynamicSpanner dyn(engine, points, config.radius);
    ASSERT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "") << "initial build";

    rnd::Xoshiro256 rng(p.seed * 16923 + p.batch * 7 + p.threads);
    for (int step = 0; step < 3; ++step) {
        UpdateBatch batch;
        for (std::size_t i = 0; i < p.batch; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point q = dyn.positions()[v];
            batch.moves.push_back(
                {v, {q.x + rng.uniform(-15.0, 15.0), q.y + rng.uniform(-15.0, 15.0)}});
        }
        const PatchStats stats = dyn.apply(batch);
        ASSERT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "")
            << "step " << step << " fell_back=" << stats.fell_back;
    }
}

TEST(DynamicConcurrent, ThreadCountsProduceIdenticalTopology) {
    // The owner-order commit's determinism claim, pinned directly: the
    // same batch sequence through pools of 1, 2, and 8 threads must
    // yield bit-identical backbones at every step.
    const double radius = 50.0;
    const auto udg = test::connected_udg(120, 300.0, radius, 71);
    ASSERT_GT(udg.node_count(), 0u);

    std::vector<std::unique_ptr<engine::SpannerEngine>> engines;
    std::vector<std::unique_ptr<DynamicSpanner>> dyns;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        engines.push_back(std::make_unique<engine::SpannerEngine>(
            test::dynamic_engine_options(ClusterPolicy::kLowestId, threads)));
        dyns.push_back(
            std::make_unique<DynamicSpanner>(*engines.back(), udg.points(), radius));
    }

    rnd::Xoshiro256 rng(31337);
    for (int step = 0; step < 6; ++step) {
        UpdateBatch batch;
        for (int i = 0; i < 24; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyns[0]->node_count()));
            const geom::Point q = dyns[0]->positions()[v];
            batch.moves.push_back(
                {v, {q.x + rng.uniform(-20.0, 20.0), q.y + rng.uniform(-20.0, 20.0)}});
        }
        for (auto& dyn : dyns) dyn->apply(batch);
        for (std::size_t i = 1; i < dyns.size(); ++i) {
            ASSERT_TRUE(dyns[i]->udg() == dyns[0]->udg())
                << "step " << step << ": UDG differs between thread counts";
            ASSERT_EQ(test::backbone_diff(dyns[i]->backbone(), dyns[0]->backbone()), "")
                << "step " << step << ": backbone differs between thread counts";
        }
    }
    ASSERT_EQ(divergence(*dyns[0], ClusterPolicy::kLowestId), "");
}

TEST(DynamicConcurrent, SimultaneousMoveAndLeaveOnAdjacentNodes) {
    // A move racing a leave of a UDG neighbor in one batch: leaves force
    // the fallback path (swap-with-last renumbering invalidates every
    // incremental structure), and the combined application — moves
    // first, then the swap-delete — must still match a from-scratch
    // build on the final positions.
    const double radius = 55.0;
    const auto udg = test::connected_udg(60, 220.0, radius, 91);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(
        test::dynamic_engine_options(ClusterPolicy::kLowestId, 2));
    DynamicSpanner dyn(engine, udg.points(), radius);

    NodeId v = 0;
    while (dyn.udg().neighbors(v).empty()) ++v;
    const NodeId u = dyn.udg().neighbors(v).back();
    UpdateBatch batch;
    const geom::Point pv = dyn.positions()[v];
    batch.moves.push_back({v, {pv.x + 10.0, pv.y + 10.0}});
    batch.leaves.push_back(u);
    const std::size_t before = dyn.node_count();
    const PatchStats stats = dyn.apply(batch);
    EXPECT_TRUE(stats.fell_back);
    ASSERT_EQ(dyn.node_count(), before - 1);
    ASSERT_EQ(divergence(dyn, ClusterPolicy::kLowestId), "");
}

}  // namespace
}  // namespace geospanner::dynamic
