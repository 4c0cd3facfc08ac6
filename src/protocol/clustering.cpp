#include "protocol/clustering.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace geospanner::protocol {

using graph::GeometricGraph;

ElectionKey key_of(const GeometricGraph& udg, NodeId v, ClusterPolicy policy) {
    switch (policy) {
        case ClusterPolicy::kLowestId:
            return {0, v};
        case ClusterPolicy::kHighestDegree:
            // Invert degree so that operator< means "wins".
            return {udg.node_count() - udg.degree(v), v};
    }
    return {0, v};
}

namespace {

/// Harvest pass shared by both engines: dominator lists come from
/// adjacency + roles; two-hop dominators from dominatee neighbors'
/// lists (what IamDominatee traffic reveals). Both are per-node CSR
/// fills on `pool`'s lanes.
void derive_lists(const GeometricGraph& udg, ClusterState& state, engine::ThreadPool* pool) {
    const std::size_t n = udg.node_count();
    state.dominators_of =
        graph::NodeLists::gather(pool, n, [&](std::size_t v, std::vector<NodeId>& out) {
            if (state.role[v] != Role::kDominatee) return;
            for (const NodeId u : udg.neighbors(static_cast<NodeId>(v))) {
                if (state.role[u] == Role::kDominator) out.push_back(u);
            }
        });
    state.two_hop_dominators_of =
        graph::NodeLists::gather(pool, n, [&](std::size_t i, std::vector<NodeId>& out) {
            const auto v = static_cast<NodeId>(i);
            const std::size_t first = out.size();
            for (const NodeId w : udg.neighbors(v)) {
                if (state.role[w] != Role::kDominatee) continue;
                for (const NodeId d : state.dominators_of[w]) {
                    if (d != v && !udg.has_edge(v, d)) out.push_back(d);
                }
            }
            std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
            out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(first), out.end()),
                      out.end());
        });
}

}  // namespace

ClusterState run_clustering(Net& net, const GeometricGraph& udg, ClusterPolicy policy) {
    const auto n = static_cast<NodeId>(udg.node_count());
    ClusterState state;
    state.role.assign(n, Role::kDominatee);
    state.dominators_of = graph::NodeLists(n);
    state.two_hop_dominators_of = graph::NodeLists(n);

    // Per-node protocol state: whiteness of self and of each neighbor as
    // currently known (updated from received announcements). Election
    // keys of neighbors are known from the Hello beacons (id + degree).
    std::vector<char> white(n, 1);
    std::vector<std::set<ElectionKey>> white_neighbors(n);
    for (NodeId v = 0; v < n; ++v) {
        for (const NodeId u : udg.neighbors(v)) {
            white_neighbors[v].insert(key_of(udg, u, policy));
        }
    }

    // Initial beacon: every node announces its id/position (and thereby
    // its degree) once, which is how nodes learn their 1-hop neighbor
    // sets in the paper's model.
    for (NodeId v = 0; v < n; ++v) net.broadcast(v, Hello{udg.point(v)});
    net.advance();

    while (true) {
        // Process this round's inbox: track neighbors leaving the white
        // state, acquire dominators, harvest two-hop dominators.
        for (NodeId v = 0; v < n; ++v) {
            for (const auto& env : net.inbox(v)) {
                if (std::holds_alternative<IamDominator>(env.payload)) {
                    white_neighbors[v].erase(key_of(udg, env.from, policy));
                    if (white[v]) {
                        // First dominator: v leaves the white state.
                        white[v] = 0;
                        state.role[v] = Role::kDominatee;
                    }
                    if (state.role[v] == Role::kDominatee &&
                        state.dominators_of.insert(v, env.from)) {
                        net.broadcast(v, IamDominatee{env.from});
                    }
                } else if (const auto* msg = std::get_if<IamDominatee>(&env.payload)) {
                    white_neighbors[v].erase(key_of(udg, env.from, policy));
                    const NodeId d = msg->dominator;
                    if (d != v && !udg.has_edge(v, d)) {
                        state.two_hop_dominators_of.insert(v, d);
                    }
                }
            }
        }
        // Decision step: a white node that ranks best among its
        // still-white neighbors elects itself dominator.
        for (NodeId v = 0; v < n; ++v) {
            if (!white[v]) continue;
            const ElectionKey mine = key_of(udg, v, policy);
            if (white_neighbors[v].empty() || mine < *white_neighbors[v].begin()) {
                white[v] = 0;
                state.role[v] = Role::kDominator;
                net.broadcast(v, IamDominator{});
            }
        }
        if (!net.advance()) break;
    }

    assert(std::none_of(white.begin(), white.end(), [](char w) { return w != 0; }));
    return state;
}

ClusterState cluster_reference(const GeometricGraph& udg, ClusterPolicy policy,
                               engine::ThreadPool* pool) {
    const auto n = static_cast<NodeId>(udg.node_count());
    ClusterState state;
    state.role.assign(n, Role::kDominatee);

    // Synchronized rounds: in each round, every white node that is a
    // local optimum among white neighbors becomes a dominator; its white
    // neighbors become dominatees. This mirrors the protocol exactly.
    // Each round is two per-node scans on `pool`'s lanes: the election
    // reads `white` and writes only the node's own `winner` slot, the
    // update reads `winner` and writes only the node's own slots.
    std::vector<char> white(n, 1);
    std::vector<char> winner(n, 0);
    std::size_t remaining = n;
    while (remaining > 0) {
        engine::parallel_for(pool, 0, n, [&](std::size_t i) {
            const auto v = static_cast<NodeId>(i);
            if (!white[v]) return;
            const ElectionKey mine = key_of(udg, v, policy);
            bool best = true;
            for (const NodeId u : udg.neighbors(v)) {
                if (white[u] && key_of(udg, u, policy) < mine) {
                    best = false;
                    break;
                }
            }
            winner[v] = best ? 1 : 0;
        });
        engine::parallel_for(pool, 0, n, [&](std::size_t i) {
            const auto v = static_cast<NodeId>(i);
            if (!white[v]) return;
            if (winner[v]) {
                white[v] = 0;
                state.role[v] = Role::kDominator;
                return;
            }
            for (const NodeId u : udg.neighbors(v)) {
                if (winner[u]) {
                    white[v] = 0;
                    state.role[v] = Role::kDominatee;
                    return;
                }
            }
        });
        const auto left = static_cast<std::size_t>(std::count(white.begin(), white.end(), 1));
        assert(left < remaining && "a global optimum always wins");
        remaining = left;
    }
    derive_lists(udg, state, pool);
    return state;
}

ClusterState lowest_id_mis(const GeometricGraph& udg) {
    const auto n = static_cast<NodeId>(udg.node_count());
    ClusterState state;
    state.role.assign(n, Role::kDominatee);

    // Lexicographically-first MIS: in increasing id order, v becomes a
    // dominator iff no smaller-id neighbor already is one.
    for (NodeId v = 0; v < n; ++v) {
        bool dominated = false;
        for (const NodeId u : udg.neighbors(v)) {
            if (u < v && state.role[u] == Role::kDominator) {
                dominated = true;
                break;
            }
        }
        state.role[v] = dominated ? Role::kDominatee : Role::kDominator;
    }
    derive_lists(udg, state, nullptr);
    return state;
}

}  // namespace geospanner::protocol
