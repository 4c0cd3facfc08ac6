#include "protocol/ldel2_protocol.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <set>

#include "delaunay/delaunay.h"
#include "geom/vec2.h"
#include "proximity/ldel.h"

namespace geospanner::protocol {

using geom::Point;
using graph::GeometricGraph;
using proximity::TriangleKey;

namespace {

constexpr double kAngleSlack = 1e-9;

std::pair<NodeId, NodeId> others(TriangleKey t, NodeId u) {
    if (t.a == u) return {t.b, t.c};
    if (t.b == u) return {t.a, t.c};
    return {t.a, t.b};
}

}  // namespace

LDelState run_ldel2(Net& net, const GeometricGraph& g, bool announce_positions) {
    const auto n = static_cast<NodeId>(g.node_count());
    const double min_angle = std::numbers::pi / 3.0 - kAngleSlack;

    if (announce_positions) {
        for (NodeId v = 0; v < n; ++v) {
            if (g.degree(v) > 0) net.broadcast(v, Hello{g.point(v)});
        }
        net.advance();
    }

    // --- Phase 1: neighbor-list exchange (one aggregate message each).
    for (NodeId v = 0; v < n; ++v) {
        if (g.degree(v) == 0) continue;
        NeighborList list;
        list.neighbors.reserve(g.degree(v));
        for (const NodeId u : g.neighbors(v)) list.neighbors.push_back({u, g.point(u)});
        const std::size_t units = list.neighbors.size();
        net.broadcast(v, NeighborList{std::move(list.neighbors)}, units);
    }
    net.advance();

    // Each node assembles its 2-hop view: node -> position, plus the
    // adjacency among its 1-hop neighbors (needed for the unit-edge test
    // on triangle sides).
    std::vector<std::map<NodeId, Point>> two_hop(n);
    std::vector<std::map<NodeId, std::set<NodeId>>> nbr_adj(n);
    for (NodeId v = 0; v < n; ++v) {
        two_hop[v][v] = g.point(v);
        for (const NodeId u : g.neighbors(v)) two_hop[v][u] = g.point(u);
        for (const auto& env : net.inbox(v)) {
            if (const auto* list = std::get_if<NeighborList>(&env.payload)) {
                auto& adj = nbr_adj[v][env.from];
                for (const auto& [id, pos] : list->neighbors) {
                    two_hop[v].emplace(id, pos);
                    adj.insert(id);
                }
            }
        }
    }

    // --- Phase 2: local Delaunay over the 2-hop view; propose incident
    // unit triangles with a >= pi/3 angle at the proposer.
    std::vector<std::set<TriangleKey>> local(n);
    std::vector<std::set<TriangleKey>> proposed(n);
    for (NodeId u = 0; u < n; ++u) {
        if (g.degree(u) < 2) continue;
        std::vector<Point> pts;
        std::vector<NodeId> ids;
        pts.reserve(two_hop[u].size());
        ids.reserve(two_hop[u].size());
        for (const auto& [id, pos] : two_hop[u]) {
            ids.push_back(id);
            pts.push_back(pos);
        }
        const delaunay::DelaunayTriangulation del(std::move(pts));
        for (const auto& t : del.triangles()) {
            const NodeId x = ids[t.a];
            const NodeId y = ids[t.b];
            const NodeId z = ids[t.c];
            if (x != u && y != u && z != u) continue;
            const auto [p, q] = [&] {
                if (x == u) return std::pair{y, z};
                if (y == u) return std::pair{x, z};
                return std::pair{x, y};
            }();
            // Sides at u are unit iff p, q are radio neighbors; the far
            // side (p, q) is checked against p's announced list.
            if (!g.has_edge(u, p) || !g.has_edge(u, q)) continue;
            if (!nbr_adj[u][p].contains(q)) continue;
            const TriangleKey key = proximity::make_triangle_key(x, y, z);
            local[u].insert(key);
            if (geom::angle_at(g.point(u), g.point(p), g.point(q)) >= min_angle) {
                if (proposed[u].insert(key).second) {
                    const auto [v, w] = others(key, u);
                    net.broadcast(u, Proposal{v, w});
                }
            }
        }
    }
    net.advance();

    // --- Phase 3: accept/reject, then unanimity (as in run_ldel).
    std::vector<std::set<TriangleKey>> heard(n);
    std::vector<std::set<std::pair<NodeId, TriangleKey>>> proposal_heard(n);
    for (NodeId v = 0; v < n; ++v) {
        std::set<TriangleKey> pending;
        for (const auto& env : net.inbox(v)) {
            if (const auto* p = std::get_if<Proposal>(&env.payload)) {
                const TriangleKey t = proximity::make_triangle_key(env.from, p->v, p->w);
                if (t.a != v && t.b != v && t.c != v) continue;
                heard[v].insert(t);
                proposal_heard[v].insert({env.from, t});
                if (!proposed[v].contains(t)) pending.insert(t);
            }
        }
        for (const TriangleKey& t : pending) {
            if (local[v].contains(t)) {
                net.broadcast(v, Accept{t});
            } else {
                net.broadcast(v, Reject{t});
            }
        }
    }
    net.advance();

    std::vector<std::set<std::pair<NodeId, TriangleKey>>> accept_heard(n);
    for (NodeId u = 0; u < n; ++u) {
        for (const auto& env : net.inbox(u)) {
            if (const auto* a = std::get_if<Accept>(&env.payload)) {
                accept_heard[u].insert({env.from, a->triangle});
            }
        }
    }

    LDelState result;
    std::set<TriangleKey> final_set;
    for (NodeId u = 0; u < n; ++u) {
        std::set<TriangleKey> known = proposed[u];
        known.insert(heard[u].begin(), heard[u].end());
        for (const TriangleKey& t : known) {
            if (!local[u].contains(t)) continue;
            const auto [v, w] = others(t, u);
            bool all_ok = true;
            for (const NodeId y : {v, w}) {
                if (!proposal_heard[u].contains({y, t}) &&
                    !accept_heard[u].contains({y, t})) {
                    all_ok = false;
                    break;
                }
            }
            if (all_ok) final_set.insert(t);
        }
    }
    result.triangles.assign(final_set.begin(), final_set.end());

    result.graph = proximity::ldel_graph(g, result.triangles);
    return result;
}

}  // namespace geospanner::protocol
