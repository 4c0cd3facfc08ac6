#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
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

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void push_stage(core::PipelineStats* stats, const char* name, Clock::time_point start,
                std::size_t items, std::size_t threads) {
    if (stats == nullptr) return;
    stats->stages.push_back({name, ms_since(start), items, threads});
}

/// Lanes a stage actually runs at: nested calls (batch workers) execute
/// their parallel_for inline on one lane.
std::size_t stage_threads(const ThreadPool& pool) {
    return ThreadPool::on_worker_thread() ? 1 : pool.thread_count();
}

// ---- Connector stage -------------------------------------------------
//
// Mirrors protocol::find_connectors with the per-candidate audibility
// election evaluated in parallel: candidate lists per dominator pair are
// flat (pair, candidate) entry vectors sorted and grouped by pair —
// tree maps and per-pair node allocations were a measurable share of
// the stage — each group's winners are decided independently, and
// winners are merged back in pair order. The determinism tests assert
// bit-identical ConnectorState.

using DominatorPair = std::pair<NodeId, NodeId>;

/// Candidates for many dominator pairs in one contiguous buffer:
/// `entries` sorted by (pair, candidate), `offsets` delimiting the
/// per-pair groups (group g = entries[offsets[g], offsets[g+1])).
struct CandidateGroups {
    std::vector<std::pair<DominatorPair, NodeId>> entries;
    std::vector<std::uint32_t> offsets;

    /// Sorts entries and rebuilds the group index. Entry lists are
    /// duplicate-free ((pair, w) is pushed at most once per phase), so
    /// the unstable sort is deterministic.
    void finish() {
        std::sort(entries.begin(), entries.end());
        offsets.clear();
        for (std::uint32_t i = 0; i < entries.size(); ++i) {
            if (i == 0 || entries[i].first != entries[i - 1].first) offsets.push_back(i);
        }
        offsets.push_back(static_cast<std::uint32_t>(entries.size()));
    }

    [[nodiscard]] std::size_t group_count() const {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }
};

/// Winners of every group: candidate w wins iff no smaller-id candidate
/// for the same pair is UDG-adjacent. Candidates ascend within a group,
/// so the beaten scan is exactly the prefix before w.
std::vector<std::vector<NodeId>> elect_winners(ThreadPool& pool, const GeometricGraph& udg,
                                               const CandidateGroups& groups) {
    std::vector<std::vector<NodeId>> winners(groups.group_count());
    pool.parallel_for(0, groups.group_count(), [&](std::size_t g) {
        const std::uint32_t begin = groups.offsets[g];
        const std::uint32_t end = groups.offsets[g + 1];
        for (std::uint32_t k = begin; k < end; ++k) {
            const NodeId w = groups.entries[k].second;
            bool beaten = false;
            for (std::uint32_t j = begin; j < k && !beaten; ++j) {
                beaten = udg.has_edge(groups.entries[j].second, w);
            }
            if (!beaten) winners[g].push_back(w);
        }
    });
    return winners;
}

void add_edge_once(std::vector<DominatorPair>& edges, NodeId a, NodeId b) {
    edges.push_back({std::min(a, b), std::max(a, b)});
}

protocol::ConnectorState parallel_connectors(ThreadPool& pool, const GeometricGraph& udg,
                                             const protocol::ClusterState& cluster,
                                             std::size_t* items) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<bool> connector(n, false);
    std::vector<DominatorPair> edges;
    *items = 0;

    // Phase A: dominators two hops apart; candidates are dominatees
    // adjacent to both.
    CandidateGroups two_hop;
    for (NodeId w = 0; w < n; ++w) {
        const auto doms = cluster.dominators(w);
        for (std::size_t i = 0; i < doms.size(); ++i) {
            for (std::size_t j = i + 1; j < doms.size(); ++j) {
                two_hop.entries.push_back({{doms[i], doms[j]}, w});
            }
        }
    }
    two_hop.finish();
    *items += two_hop.entries.size();
    {
        const auto winners = elect_winners(pool, udg, two_hop);
        for (std::size_t g = 0; g < winners.size(); ++g) {
            const DominatorPair pair = two_hop.entries[two_hop.offsets[g]].first;
            for (const NodeId w : winners[g]) {
                connector[w] = true;
                add_edge_once(edges, pair.first, w);
                add_edge_once(edges, w, pair.second);
            }
        }
    }

    // Phase B: first leg of three-hop connections (ordered pairs u → v).
    CandidateGroups first_leg;
    for (NodeId w = 0; w < n; ++w) {
        for (const NodeId u : cluster.dominators(w)) {
            for (const NodeId v : cluster.two_hop_dominators(w)) {
                first_leg.entries.push_back({{u, v}, w});
            }
        }
    }
    first_leg.finish();
    *items += first_leg.entries.size();
    const auto first_winners = elect_winners(pool, udg, first_leg);
    for (std::size_t g = 0; g < first_winners.size(); ++g) {
        const DominatorPair pair = first_leg.entries[first_leg.offsets[g]].first;
        for (const NodeId w : first_winners[g]) {
            connector[w] = true;
            add_edge_once(edges, pair.first, w);
        }
    }

    // Phase C: second leg — dominatees of v audible from a first-leg
    // winner. `audible` records (pair, x, w) for every audible (winner
    // w, dominatee x) incidence; the candidate set per pair is the
    // deduplicated x column.
    std::vector<std::pair<std::pair<DominatorPair, NodeId>, NodeId>> audible;
    CandidateGroups second_leg;
    for (std::size_t g = 0; g < first_winners.size(); ++g) {
        const DominatorPair pair = first_leg.entries[first_leg.offsets[g]].first;
        for (const NodeId w : first_winners[g]) {
            for (const NodeId x : udg.neighbors(w)) {
                const auto doms = cluster.dominators(x);
                if (std::binary_search(doms.begin(), doms.end(), pair.second)) {
                    audible.push_back({{pair, x}, w});
                }
            }
        }
    }
    std::sort(audible.begin(), audible.end());
    for (std::size_t i = 0; i < audible.size(); ++i) {
        if (i == 0 || audible[i].first != audible[i - 1].first) {
            second_leg.entries.push_back(audible[i].first);
        }
    }
    second_leg.finish();
    *items += second_leg.entries.size();
    {
        const auto winners = elect_winners(pool, udg, second_leg);
        for (std::size_t g = 0; g < winners.size(); ++g) {
            const DominatorPair pair = second_leg.entries[second_leg.offsets[g]].first;
            for (const NodeId x : winners[g]) {
                connector[x] = true;
                add_edge_once(edges, x, pair.second);
                const auto range = std::equal_range(
                    audible.begin(), audible.end(),
                    std::pair{std::pair{pair, x}, NodeId{0}},
                    [](const auto& a, const auto& b) { return a.first < b.first; });
                for (auto it = range.first; it != range.second; ++it) {
                    add_edge_once(edges, x, it->second);
                }
            }
        }
    }

    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    protocol::ConnectorState state;
    state.is_connector = std::move(connector);
    state.cds_edges = std::move(edges);
    return state;
}

// ---- ICDS stage ------------------------------------------------------

GeometricGraph parallel_induce(ThreadPool& pool, const GeometricGraph& udg,
                               const std::vector<bool>& in_backbone) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<std::vector<NodeId>> kept(n);
    pool.parallel_for(0, n, [&](std::size_t v) {
        if (!in_backbone[v]) return;
        for (const NodeId u : udg.neighbors(static_cast<NodeId>(v))) {
            if (u > v && in_backbone[u]) kept[v].push_back(u);
        }
    });
    // kept[v] inherits the adjacency order (ascending), so the
    // concatenation is lexicographic — bulk construction applies.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v = 0; v < n; ++v) {
        for (const NodeId u : kept[v]) edges.emplace_back(v, u);
    }
    return GeometricGraph::from_edges(udg.points(), edges);
}

// ---- LDel stage ------------------------------------------------------

/// LDel⁽¹⁾ triangles via the per-node kernel, node loops in parallel.
/// Same filter as proximity::ldel1_triangles: a triangle survives iff it
/// appears in the local Delaunay triangulation of all three vertices.
std::vector<TriangleKey> parallel_ldel1_triangles(ThreadPool& pool,
                                                  const GeometricGraph& icds) {
    const auto n = static_cast<NodeId>(icds.node_count());
    std::vector<std::vector<TriangleKey>> local(n);
    pool.parallel_for(0, n, [&](std::size_t u) {
        // One triangulation arena per lane, reused across nodes and
        // builds: the per-node local Delaunay cost is allocator-bound
        // without it. Results are independent of scratch history.
        thread_local proximity::LocalDelaunayScratch scratch;
        proximity::local_triangles_at(icds, static_cast<NodeId>(u), scratch, local[u]);
    });

    std::vector<std::vector<TriangleKey>> mine(n);
    pool.parallel_for(0, n, [&](std::size_t u) {
        for (const auto& t : local[u]) {
            if (t.a != u) continue;  // Count each triangle once, at its least vertex.
            if (std::binary_search(local[t.b].begin(), local[t.b].end(), t) &&
                std::binary_search(local[t.c].begin(), local[t.c].end(), t)) {
                mine[u].push_back(t);
            }
        }
    });

    // Concatenating in node order yields the globally sorted set (the
    // least vertex is the leading key component).
    std::vector<TriangleKey> result;
    for (NodeId u = 0; u < n; ++u) {
        result.insert(result.end(), mine[u].begin(), mine[u].end());
    }
    return result;
}

std::vector<TriangleKey> parallel_planarize(ThreadPool& pool, const GeometricGraph& icds,
                                            std::vector<TriangleKey> triangles) {
    const proximity::Alg3Filter filter(icds, std::move(triangles));
    std::vector<TriangleKey> kept;
    if (pool.thread_count() <= 1) {
        // Single lane: the pair-at-a-time removal scan marks both sides
        // of each intersecting pair once, halving the geometry tests.
        // keeps(i) == !removed[i] by the Alg3Filter contract, so the
        // output matches the parallel path bit for bit.
        std::vector<char> removed;
        filter.removal_scan(removed);
        for (std::size_t i = 0; i < filter.size(); ++i) {
            if (!removed[i]) kept.push_back(filter.triangles()[i]);
        }
        return kept;
    }
    std::vector<char> keep(filter.size(), 0);
    pool.parallel_for(0, filter.size(),
                      [&](std::size_t i) { keep[i] = filter.keeps(i) ? 1 : 0; });
    for (std::size_t i = 0; i < filter.size(); ++i) {
        if (keep[i]) kept.push_back(filter.triangles()[i]);
    }
    return kept;
}

}  // namespace

GeometricGraph build_udg_staged(ThreadPool& pool, std::vector<geom::Point> points,
                                double radius, core::PipelineStats* stats) {
    auto start = Clock::now();
    const auto n = static_cast<NodeId>(points.size());
    if (n == 0 || radius <= 0.0) {
        push_stage(stats, "grid", start, n, 1);
        push_stage(stats, "udg", start, n, stage_threads(pool));
        return GeometricGraph(std::move(points));
    }

    // The grid build is the Morton permutation of the point set (cells
    // ordered by Morton code, coordinates gathered into slot order) —
    // reported as its own stage so the reorder cost is visible next to
    // the scans it accelerates.
    const proximity::CompactCellGrid grid(points, radius);
    push_stage(stats, "grid", start, n, 1);

    start = Clock::now();
    const double r2 = radius * radius;
    std::vector<std::vector<NodeId>> above(n);
    pool.parallel_for(0, n, [&](std::size_t v) {
        grid.for_neighbors_above(points[v], static_cast<NodeId>(v), r2,
                                 [&](NodeId u) { above[v].push_back(u); });
        std::sort(above[v].begin(), above[v].end());
    });
    std::size_t total = 0;
    for (const auto& list : above) total += list.size();
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(total);
    for (NodeId v = 0; v < n; ++v) {
        for (const NodeId u : above[v]) edges.emplace_back(v, u);
    }
    GeometricGraph g = GeometricGraph::from_edges(std::move(points), edges);
    push_stage(stats, "udg", start, n, stage_threads(pool));
    return g;
}

core::Backbone build_backbone_staged(ThreadPool& pool, const GeometricGraph& udg,
                                     const EngineOptions& options,
                                     core::PipelineStats* stats,
                                     verify::AuditTrail* trail) {
    const auto start = Clock::now();
    protocol::ClusterState cluster =
        protocol::cluster_reference(udg, options.cluster_policy);
    push_stage(stats, "clustering", start, udg.node_count(), 1);
    if (options.audit && trail != nullptr) {
        trail->stages.push_back(
            verify::audit_clustering(udg, cluster, options.audit_options));
    }
    return build_backbone_from_cluster(pool, udg, std::move(cluster), options, stats,
                                       trail);
}

core::Backbone build_backbone_from_cluster(ThreadPool& pool, const GeometricGraph& udg,
                                           protocol::ClusterState cluster,
                                           const EngineOptions& options,
                                           core::PipelineStats* stats,
                                           verify::AuditTrail* trail) {
    const auto n = static_cast<NodeId>(udg.node_count());
    const std::size_t lanes = stage_threads(pool);
    const bool audit = options.audit && trail != nullptr;
    core::Backbone result;
    result.cluster = std::move(cluster);

    auto start = Clock::now();
    std::size_t candidate_items = 0;
    protocol::ConnectorState connectors =
        parallel_connectors(pool, udg, result.cluster, &candidate_items);
    push_stage(stats, "connectors", start, candidate_items, lanes);
    if (audit) {
        trail->stages.push_back(verify::audit_connectors(
            udg, result.cluster, connectors.cds_edges, options.audit_options));
    }

    start = Clock::now();
    result.in_backbone.assign(n, false);
    for (NodeId v = 0; v < n; ++v) {
        result.in_backbone[v] =
            result.cluster.is_dominator(v) || connectors.is_connector[v];
    }
    result.icds = parallel_induce(pool, udg, result.in_backbone);
    push_stage(stats, "icds", start, n, lanes);
    if (audit) {
        trail->stages.push_back(verify::audit_icds(udg, result.in_backbone,
                                                   result.icds, options.audit_options));
    }

    if (options.planarizer == core::Planarizer::kLdel1) {
        start = Clock::now();
        std::vector<TriangleKey> triangles = parallel_ldel1_triangles(pool, result.icds);
        push_stage(stats, "ldel", start, result.backbone_size(), lanes);

        start = Clock::now();
        const std::size_t triangle_count = triangles.size();
        result.ldel_triangles =
            parallel_planarize(pool, result.icds, std::move(triangles));
        push_stage(stats, "planarize", start, triangle_count, lanes);
    } else {
        start = Clock::now();
        result.ldel_triangles = proximity::ldel_k_triangles(result.icds, 2);
        push_stage(stats, "ldel", start, result.backbone_size(), 1);
    }

    start = Clock::now();
    result.ldel_icds = proximity::ldel_graph(result.icds, result.ldel_triangles);

    result.is_connector = connectors.is_connector;
    // cds_edges is sorted and duplicate-free by the connector stage's
    // contract, exactly the bulk constructor's precondition.
    result.cds = GeometricGraph::from_edges(udg.points(), connectors.cds_edges);

    result.cds_prime = core::with_dominatee_links(result.cds, result.cluster);
    result.icds_prime = core::with_dominatee_links(result.icds, result.cluster);
    result.ldel_icds_prime =
        core::with_dominatee_links(result.ldel_icds, result.cluster);
    push_stage(stats, "assemble", start, n, 1);
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
