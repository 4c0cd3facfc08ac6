#include "engine/engine.h"

#include <algorithm>
#include <utility>

#include "protocol/clustering.h"
#include "protocol/connectors.h"
#include "proximity/cell_grid.h"
#include "proximity/ldel.h"
#include "proximity/ldel_k.h"

namespace geospanner::engine {

using graph::GeometricGraph;
using graph::NodeId;
using proximity::TriangleKey;

using core::push_stage;
using core::StageClock;

GeometricGraph build_udg_staged(ThreadPool& pool, std::vector<geom::Point> points,
                                double radius, core::PipelineStats* stats) {
    proximity::require_grid_range(points, radius);
    auto start = StageClock::now();
    const auto n = static_cast<NodeId>(points.size());
    if (n == 0 || radius <= 0.0) {
        push_stage(stats, "grid", start, n, 1);
        push_stage(stats, "udg", start, n, pool.available_lanes());
        return GeometricGraph(std::move(points));
    }

    // The grid build is the Morton permutation of the point set (cells
    // ordered by Morton code, coordinates gathered into slot order) —
    // reported as its own stage so the reorder cost is visible next to
    // the scans it accelerates.
    const proximity::CompactCellGrid grid(points, radius);
    push_stage(stats, "grid", start, n, 1);

    start = StageClock::now();
    const double r2 = radius * radius;
    using Edge = std::pair<NodeId, NodeId>;
    const std::vector<Edge> edges = gather_owned<Edge>(
        &pool, n, [&](std::size_t i, std::vector<Edge>& out) {
            const auto v = static_cast<NodeId>(i);
            const auto first = static_cast<std::ptrdiff_t>(out.size());
            grid.for_neighbors_above(points[v], v, r2,
                                     [&](NodeId u) { out.emplace_back(v, u); });
            std::sort(out.begin() + first, out.end());
        });
    GeometricGraph g = GeometricGraph::from_edges(std::move(points), edges);
    push_stage(stats, "udg", start, n, pool.available_lanes());
    return g;
}

core::Backbone build_backbone_staged(ThreadPool& pool, const GeometricGraph& udg,
                                     const EngineOptions& options,
                                     core::PipelineStats* stats,
                                     verify::AuditTrail* trail, BuildIntermediates* keep) {
    const auto n = static_cast<NodeId>(udg.node_count());
    const std::size_t lanes = pool.available_lanes();
    const bool audit = options.audit && trail != nullptr;
    core::Backbone result;

    auto start = StageClock::now();
    result.cluster = protocol::cluster_reference(udg, options.cluster_policy, &pool);
    push_stage(stats, "clustering", start, n, lanes);
    if (audit) {
        trail->stages.push_back(
            verify::audit_clustering(udg, result.cluster, options.audit_options));
    }

    start = StageClock::now();
    std::size_t candidate_items = 0;
    const protocol::ConnectorState connectors =
        protocol::elect_connectors(udg, result.cluster, &pool, &candidate_items,
                                   keep != nullptr ? &keep->connectors : nullptr);
    push_stage(stats, "connectors", start, candidate_items, lanes);
    if (audit) {
        trail->stages.push_back(verify::audit_connectors(
            udg, result.cluster, connectors.cds_edges, options.audit_options));
    }

    start = StageClock::now();
    result.in_backbone.assign(n, false);
    for (NodeId v = 0; v < n; ++v) {
        result.in_backbone[v] =
            result.cluster.is_dominator(v) || connectors.is_connector[v];
    }
    result.icds = core::induce_on_backbone(udg, result.in_backbone, &pool);
    push_stage(stats, "icds", start, n, lanes);
    if (audit) {
        trail->stages.push_back(verify::audit_icds(udg, result.in_backbone,
                                                   result.icds, options.audit_options));
    }

    if (options.planarizer == core::Planarizer::kLdel1) {
        start = StageClock::now();
        std::vector<TriangleKey> triangles = proximity::ldel1_triangles(
            result.icds, &pool, keep != nullptr ? &keep->local : nullptr);
        push_stage(stats, "ldel", start, result.backbone_size(), lanes);

        start = StageClock::now();
        result.ldel_triangles = proximity::planarize_triangles(result.icds, triangles, &pool);
        push_stage(stats, "planarize", start, triangles.size(), lanes);
        if (keep != nullptr) keep->ldel1 = std::move(triangles);
    } else {
        start = StageClock::now();
        result.ldel_triangles = proximity::ldel_k_triangles(result.icds, 2);
        push_stage(stats, "ldel", start, result.backbone_size(), 1);
    }

    start = StageClock::now();
    result.ldel_icds = proximity::ldel_graph(result.icds, result.ldel_triangles, &pool);
    core::assemble_graphs(result, udg, connectors, &pool);
    push_stage(stats, "assemble", start, n, lanes);
    if (audit) {
        // The LDel audit certifies the planarized graphs, so it runs
        // once they are assembled.
        trail->stages.push_back(verify::audit_ldel(udg, result, options.audit_options));
    }
    return result;
}

SpannerEngine::SpannerEngine(EngineOptions options)
    : options_(options), pool_(options.threads) {}

BuildResult SpannerEngine::build(std::vector<geom::Point> points, double radius) {
    BuildResult result;
    result.udg = build_udg_staged(pool_, std::move(points), radius, &result.stats);
    result.backbone = build_backbone_staged(pool_, result.udg, options_, &result.stats,
                                            &result.audit);
    return result;
}

core::Backbone SpannerEngine::build_backbone(const GeometricGraph& udg,
                                             core::PipelineStats* stats,
                                             verify::AuditTrail* trail) {
    return build_backbone_staged(pool_, udg, options_, stats, trail);
}

}  // namespace geospanner::engine
