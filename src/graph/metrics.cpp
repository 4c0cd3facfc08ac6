#include "graph/metrics.h"

#include <algorithm>
#include <cmath>
#include <cassert>

#include "engine/thread_pool.h"
#include "graph/shortest_paths.h"

namespace geospanner::graph {

DegreeStats degree_stats(const GeometricGraph& g) {
    DegreeStats stats;
    if (g.node_count() == 0) return stats;
    std::size_t total = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
        const std::size_t d = g.degree(v);
        stats.max = std::max(stats.max, d);
        total += d;
    }
    stats.avg = static_cast<double>(total) / static_cast<double>(g.node_count());
    return stats;
}

namespace {

/// Per-source partial of the stretch accumulation: one slot per source
/// node, written only by the lane that owns the source.
struct SourcePartial {
    double sum = 0.0;
    double max = 0.0;
    std::size_t pair_count = 0;
    std::size_t disconnected_pairs = 0;
};

/// Shared stretch loop over a per-source distance oracle. `Dist` maps a
/// source node to a vector of costs; `unreachable_value` marks
/// unreachable targets. Each source accumulates into its own partial;
/// partials merge in source order on the calling thread, so any thread
/// count (including none) produces bit-identical results.
template <typename DistB, typename DistT, typename Value>
StretchStats stretch_impl(const GeometricGraph& base, const GeometricGraph& topo,
                          DistB base_dist, DistT topo_dist, Value unreachable_value,
                          double min_euclidean, engine::ThreadPool* pool) {
    assert(base.node_count() == topo.node_count());
    const double min_d2 = min_euclidean * min_euclidean;
    const auto n = base.node_count();
    std::vector<SourcePartial> partials(n);
    engine::parallel_for(pool, 0, n, [&](std::size_t source) {
        const auto u = static_cast<NodeId>(source);
        const auto db = base_dist(base, u);
        const auto dt = topo_dist(topo, u);
        SourcePartial p;
        for (NodeId v = u + 1; v < n; ++v) {
            if (db[v] == unreachable_value) continue;  // Not comparable.
            if (static_cast<double>(db[v]) == 0.0) continue;  // Coincident points.
            if (geom::squared_distance(base.point(u), base.point(v)) <= min_d2) continue;
            ++p.pair_count;
            if (dt[v] == unreachable_value) {
                ++p.disconnected_pairs;
                continue;
            }
            const double ratio = static_cast<double>(dt[v]) / static_cast<double>(db[v]);
            p.sum += ratio;
            p.max = std::max(p.max, ratio);
        }
        partials[source] = p;
    });
    StretchStats stats;
    for (const SourcePartial& p : partials) {
        stats.pair_count += p.pair_count;
        stats.disconnected_pairs += p.disconnected_pairs;
        stats.avg += p.sum;
        stats.max = std::max(stats.max, p.max);
    }
    const std::size_t measured = stats.pair_count - stats.disconnected_pairs;
    if (measured > 0) stats.avg /= static_cast<double>(measured);
    return stats;
}

}  // namespace

StretchStats length_stretch(const GeometricGraph& base, const GeometricGraph& topo,
                            double min_euclidean, engine::ThreadPool* pool) {
    return stretch_impl(
        base, topo, [](const GeometricGraph& g, NodeId s) { return dijkstra_lengths(g, s); },
        [](const GeometricGraph& g, NodeId s) { return dijkstra_lengths(g, s); },
        kUnreachableLength, min_euclidean, pool);
}

StretchStats hop_stretch(const GeometricGraph& base, const GeometricGraph& topo,
                         double min_euclidean, engine::ThreadPool* pool) {
    return stretch_impl(
        base, topo, [](const GeometricGraph& g, NodeId s) { return bfs_hops(g, s); },
        [](const GeometricGraph& g, NodeId s) { return bfs_hops(g, s); }, kUnreachableHops,
        min_euclidean, pool);
}

StretchStats power_stretch(const GeometricGraph& base, const GeometricGraph& topo,
                           double beta, double min_euclidean, engine::ThreadPool* pool) {
    const auto oracle = [beta](const GeometricGraph& g, NodeId s) {
        return dijkstra_powers(g, s, beta);
    };
    return stretch_impl(base, topo, oracle, oracle, kUnreachableLength, min_euclidean,
                        pool);
}

StretchWitness length_stretch_witness(const GeometricGraph& base,
                                      const GeometricGraph& topo, double min_euclidean,
                                      engine::ThreadPool* pool) {
    assert(base.node_count() == topo.node_count());
    const double min_d2 = min_euclidean * min_euclidean;
    const auto n = base.node_count();
    // Per-source best pair, merged in source order with a strict ">" so
    // the earliest maximizing (u, v) wins — exactly the pair the old
    // sequential u-major scan reported.
    std::vector<StretchWitness> partials(n);
    engine::parallel_for(pool, 0, n, [&](std::size_t source) {
        const auto u = static_cast<NodeId>(source);
        const auto db = dijkstra_lengths(base, u);
        const auto dt = dijkstra_lengths(topo, u);
        StretchWitness best;
        for (NodeId v = u + 1; v < n; ++v) {
            if (db[v] == kUnreachableLength || db[v] == 0.0) continue;
            if (dt[v] == kUnreachableLength) continue;
            if (geom::squared_distance(base.point(u), base.point(v)) <= min_d2) continue;
            const double ratio = dt[v] / db[v];
            if (ratio > best.ratio) {
                best = {u, v, ratio, db[v], dt[v]};
            }
        }
        partials[source] = best;
    });
    StretchWitness witness;
    for (const StretchWitness& best : partials) {
        if (best.ratio > witness.ratio) witness = best;
    }
    return witness;
}

PowerAssignment power_assignment(const GeometricGraph& topo, double beta) {
    PowerAssignment result;
    if (topo.node_count() == 0) return result;
    for (NodeId v = 0; v < topo.node_count(); ++v) {
        double farthest = 0.0;
        for (const NodeId u : topo.neighbors(v)) {
            farthest = std::max(farthest, topo.edge_length(v, u));
        }
        const double p = farthest == 0.0 ? 0.0 : std::pow(farthest, beta);
        result.total += p;
        result.max = std::max(result.max, p);
    }
    result.avg = result.total / static_cast<double>(topo.node_count());
    return result;
}

}  // namespace geospanner::graph
