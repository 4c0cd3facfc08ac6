#include "protocol/connectors.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <set>

namespace geospanner::protocol {

using graph::GeometricGraph;

namespace {

using DominatorPair = std::pair<NodeId, NodeId>;

void add_edge_once(std::set<std::pair<NodeId, NodeId>>& edges, NodeId a, NodeId b) {
    edges.insert({std::min(a, b), std::max(a, b)});
}

ConnectorState finish(std::size_t n, const std::vector<bool>& connector,
                      const std::set<std::pair<NodeId, NodeId>>& edges) {
    ConnectorState state;
    state.is_connector = connector;
    state.is_connector.resize(n, false);
    state.cds_edges.assign(edges.begin(), edges.end());
    return state;
}

}  // namespace

ConnectorState run_connectors(Net& net, const GeometricGraph& udg,
                              const ClusterState& cluster) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<bool> connector(n, false);
    std::set<std::pair<NodeId, NodeId>> edges;

    // ---- Phase A: connectors for dominators two hops apart. ----
    // Candidates: dominatees adjacent to both dominators of a pair.
    std::vector<std::vector<DominatorPair>> two_hop_claims(n);
    for (NodeId w = 0; w < n; ++w) {
        const auto& doms = cluster.dominators_of[w];
        for (std::size_t i = 0; i < doms.size(); ++i) {
            for (std::size_t j = i + 1; j < doms.size(); ++j) {
                two_hop_claims[w].push_back({doms[i], doms[j]});
                net.broadcast(w, TryConnector{doms[i], doms[j], ConnectorStage::kTwoHop});
            }
        }
    }
    net.advance();

    // Election: w wins pair (u, v) iff no audible candidate for the same
    // pair has a smaller id.
    for (NodeId w = 0; w < n; ++w) {
        if (two_hop_claims[w].empty()) continue;
        std::set<DominatorPair> beaten;
        for (const auto& env : net.inbox(w)) {
            if (const auto* try_msg = std::get_if<TryConnector>(&env.payload)) {
                if (try_msg->stage == ConnectorStage::kTwoHop && env.from < w) {
                    beaten.insert({try_msg->u, try_msg->v});
                }
            }
        }
        for (const auto& [u, v] : two_hop_claims[w]) {
            if (beaten.contains({u, v})) continue;
            net.broadcast(w, IamConnector{u, v, ConnectorStage::kTwoHop});
            connector[w] = true;
            add_edge_once(edges, u, w);
            add_edge_once(edges, w, v);
        }
    }
    net.advance();  // Deliver IamConnector announcements (informational).

    // ---- Phase B: first leg of three-hop connections (ordered pairs). ----
    std::vector<std::vector<DominatorPair>> first_claims(n);
    for (NodeId w = 0; w < n; ++w) {
        for (const NodeId u : cluster.dominators_of[w]) {
            for (const NodeId v : cluster.two_hop_dominators_of[w]) {
                first_claims[w].push_back({u, v});
                net.broadcast(w, TryConnector{u, v, ConnectorStage::kThreeHopFirst});
            }
        }
    }
    net.advance();

    for (NodeId w = 0; w < n; ++w) {
        if (first_claims[w].empty()) continue;
        std::set<DominatorPair> beaten;
        for (const auto& env : net.inbox(w)) {
            if (const auto* try_msg = std::get_if<TryConnector>(&env.payload)) {
                if (try_msg->stage == ConnectorStage::kThreeHopFirst && env.from < w) {
                    beaten.insert({try_msg->u, try_msg->v});
                }
            }
        }
        for (const auto& [u, v] : first_claims[w]) {
            if (beaten.contains({u, v})) continue;
            net.broadcast(w, IamConnector{u, v, ConnectorStage::kThreeHopFirst});
            connector[w] = true;
            add_edge_once(edges, u, w);
        }
    }
    net.advance();

    // ---- Phase C: second leg. A dominatee x of v that hears a first-leg
    // winner w for (u, v) becomes a candidate; a winner links to v and to
    // every audible first-leg winner. ----
    std::vector<std::map<DominatorPair, std::vector<NodeId>>> first_winners_heard(n);
    for (NodeId x = 0; x < n; ++x) {
        for (const auto& env : net.inbox(x)) {
            if (const auto* iam = std::get_if<IamConnector>(&env.payload)) {
                if (iam->stage != ConnectorStage::kThreeHopFirst) continue;
                const auto& my_doms = cluster.dominators_of[x];
                if (!std::binary_search(my_doms.begin(), my_doms.end(), iam->v)) continue;
                first_winners_heard[x][{iam->u, iam->v}].push_back(env.from);
            }
        }
        for (const auto& [pair, winners] : first_winners_heard[x]) {
            (void)winners;
            net.broadcast(x, TryConnector{pair.first, pair.second,
                                          ConnectorStage::kThreeHopSecond});
        }
    }
    net.advance();

    for (NodeId x = 0; x < n; ++x) {
        if (first_winners_heard[x].empty()) continue;
        std::set<DominatorPair> beaten;
        for (const auto& env : net.inbox(x)) {
            if (const auto* try_msg = std::get_if<TryConnector>(&env.payload)) {
                if (try_msg->stage == ConnectorStage::kThreeHopSecond && env.from < x) {
                    beaten.insert({try_msg->u, try_msg->v});
                }
            }
        }
        for (const auto& [pair, winners] : first_winners_heard[x]) {
            if (beaten.contains(pair)) continue;
            net.broadcast(x, IamConnector{pair.first, pair.second,
                                          ConnectorStage::kThreeHopSecond});
            connector[x] = true;
            add_edge_once(edges, x, pair.second);
            for (const NodeId w : winners) add_edge_once(edges, x, w);
        }
    }
    net.advance();

    return finish(n, connector, edges);
}

ConnectorState find_connectors(const GeometricGraph& udg, const ClusterState& cluster) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<bool> connector(n, false);
    std::set<std::pair<NodeId, NodeId>> edges;

    // Candidate sets keyed by dominator pair, in node-id order (lists
    // built by ascending w, so they are sorted).
    std::map<DominatorPair, std::vector<NodeId>> two_hop_candidates;
    for (NodeId w = 0; w < n; ++w) {
        const auto& doms = cluster.dominators_of[w];
        for (std::size_t i = 0; i < doms.size(); ++i) {
            for (std::size_t j = i + 1; j < doms.size(); ++j) {
                two_hop_candidates[{doms[i], doms[j]}].push_back(w);
            }
        }
    }
    const auto wins = [&udg](NodeId w, const std::vector<NodeId>& candidates) {
        // w wins iff no smaller-id candidate is audible (UDG-adjacent).
        return std::none_of(candidates.begin(), candidates.end(), [&](NodeId c) {
            return c < w && udg.has_edge(c, w);
        });
    };
    for (const auto& [pair, candidates] : two_hop_candidates) {
        for (const NodeId w : candidates) {
            if (!wins(w, candidates)) continue;
            connector[w] = true;
            add_edge_once(edges, pair.first, w);
            add_edge_once(edges, w, pair.second);
        }
    }

    // First leg of three-hop connections (ordered pairs u -> v).
    std::map<DominatorPair, std::vector<NodeId>> first_candidates;
    for (NodeId w = 0; w < n; ++w) {
        for (const NodeId u : cluster.dominators_of[w]) {
            for (const NodeId v : cluster.two_hop_dominators_of[w]) {
                first_candidates[{u, v}].push_back(w);
            }
        }
    }
    std::map<DominatorPair, std::vector<NodeId>> first_winners;
    for (const auto& [pair, candidates] : first_candidates) {
        for (const NodeId w : candidates) {
            if (!wins(w, candidates)) continue;
            first_winners[pair].push_back(w);
            connector[w] = true;
            add_edge_once(edges, pair.first, w);
        }
    }

    // Second leg: dominatees of v audible from a first-leg winner.
    std::map<DominatorPair, std::vector<NodeId>> second_candidates;
    std::map<std::pair<DominatorPair, NodeId>, std::vector<NodeId>> audible_winners;
    for (const auto& [pair, winners] : first_winners) {
        std::set<NodeId> candidates;
        for (const NodeId w : winners) {
            for (const NodeId x : udg.neighbors(w)) {
                const auto& doms = cluster.dominators_of[x];
                if (std::binary_search(doms.begin(), doms.end(), pair.second)) {
                    candidates.insert(x);
                    audible_winners[{pair, x}].push_back(w);
                }
            }
        }
        second_candidates[pair].assign(candidates.begin(), candidates.end());
    }
    for (const auto& [pair, candidates] : second_candidates) {
        for (const NodeId x : candidates) {
            if (!wins(x, candidates)) continue;
            connector[x] = true;
            add_edge_once(edges, x, pair.second);
            for (const NodeId w : audible_winners[{pair, x}]) add_edge_once(edges, x, w);
        }
    }

    return finish(n, connector, edges);
}

namespace {

/// Per-lane buffers of the connector kernel, reused owner to owner.
struct ElectionScratch {
    std::vector<std::pair<NodeId, NodeId>> entries;  ///< (partner v, candidate)
    std::vector<NodeId> winners;
    std::vector<std::pair<NodeId, NodeId>> audible;  ///< (second-leg x, first-leg w)
    std::vector<NodeId> seconds;
    std::vector<NodeId> second_winners;
};

/// Winners of one election: candidate w (ascending) wins iff no
/// smaller-id candidate of the same pair is UDG-adjacent — the beaten
/// scan is exactly the prefix before w.
template <typename CandidateAt>
void elect(const GeometricGraph& udg, std::size_t count, CandidateAt candidate_at,
           std::vector<NodeId>& winners) {
    winners.clear();
    for (std::size_t k = 0; k < count; ++k) {
        const NodeId w = candidate_at(k);
        bool beaten = false;
        for (std::size_t j = 0; j < k && !beaten; ++j) {
            beaten = udg.has_edge(candidate_at(j), w);
        }
        if (!beaten) winners.push_back(w);
    }
}

/// Every election dominator u owns: appends u's CDS links (smaller
/// endpoint first, unsorted, with repeats) to `out` and returns the
/// candidate entries evaluated. Reads u's 2-hop ball only; a
/// non-dominator owns nothing.
std::size_t elect_owned(const GeometricGraph& udg, const ClusterState& cluster, NodeId u,
                        std::vector<std::pair<NodeId, NodeId>>& out) {
    if (!cluster.is_dominator(u)) return 0;
    using Edge = std::pair<NodeId, NodeId>;
    const auto has_dominator = [&](NodeId w, NodeId d) {
        const auto doms = cluster.dominators(w);
        return std::binary_search(doms.begin(), doms.end(), d);
    };
    const auto add = [&](NodeId a, NodeId b) {
        out.push_back({std::min(a, b), std::max(a, b)});
    };
    thread_local ElectionScratch scratch;
    auto& entries = scratch.entries;
    std::size_t evaluated = 0;
    // Calls decide(v, begin, end) for every group of equal partner v in
    // the sorted entries.
    const auto for_each_group = [&](auto&& decide) {
        for (std::size_t begin = 0; begin < entries.size();) {
            std::size_t end = begin;
            while (end < entries.size() && entries[end].first == entries[begin].first) {
                ++end;
            }
            decide(entries[begin].first, begin, end);
            begin = end;
        }
    };

    // The candidates of a pair (u, v) are dominatees w with u in
    // dominators(w) — all of them UDG neighbours of u — so the owner
    // gathers them from its own adjacency; each election groups one
    // partner v. Phase A: dominators two hops apart (u < v); candidates
    // are dominatees adjacent to both.
    entries.clear();
    for (const NodeId w : udg.neighbors(u)) {
        if (!has_dominator(w, u)) continue;
        for (const NodeId v : cluster.dominators(w)) {
            if (v > u) entries.push_back({v, w});
        }
    }
    std::sort(entries.begin(), entries.end());
    evaluated += entries.size();
    for_each_group([&](NodeId v, std::size_t begin, std::size_t end) {
        elect(udg, end - begin, [&](std::size_t k) { return entries[begin + k].second; },
              scratch.winners);
        for (const NodeId w : scratch.winners) {
            add(u, w);
            add(w, v);
        }
    });

    // Phase B: first leg of three-hop connections u → v.
    entries.clear();
    for (const NodeId w : udg.neighbors(u)) {
        if (!has_dominator(w, u)) continue;
        for (const NodeId v : cluster.two_hop_dominators(w)) entries.push_back({v, w});
    }
    std::sort(entries.begin(), entries.end());
    evaluated += entries.size();
    for_each_group([&](NodeId v, std::size_t begin, std::size_t end) {
        elect(udg, end - begin, [&](std::size_t k) { return entries[begin + k].second; },
              scratch.winners);
        // Phase C: second leg — dominatees x of v audible from a
        // first-leg winner w; a winning x links to v and to every
        // first-leg winner it hears.
        auto& audible = scratch.audible;
        audible.clear();
        for (const NodeId w : scratch.winners) {
            add(u, w);
            for (const NodeId x : udg.neighbors(w)) {
                if (has_dominator(x, v)) audible.push_back({x, w});
            }
        }
        std::sort(audible.begin(), audible.end());
        auto& seconds = scratch.seconds;
        seconds.clear();
        for (const auto& [x, w] : audible) {
            if (seconds.empty() || seconds.back() != x) seconds.push_back(x);
        }
        evaluated += seconds.size();
        elect(udg, seconds.size(), [&](std::size_t k) { return seconds[k]; },
              scratch.second_winners);
        for (const NodeId x : scratch.second_winners) {
            add(x, v);
            const auto range = std::equal_range(
                audible.begin(), audible.end(), Edge{x, 0},
                [](const Edge& a, const Edge& b) { return a.first < b.first; });
            for (auto it = range.first; it != range.second; ++it) add(x, it->second);
        }
    });
    return evaluated;
}

/// The owner bodies of owner_at(0 .. count-1) on `pool`'s lanes, slices
/// joined in owner order; each slice sorted and deduplicated when
/// `sorted` (a full build's per-node buckets sort the links anyway).
template <typename OwnerAt>
ConnectorSlices elect_slices(const GeometricGraph& udg, const ClusterState& cluster,
                             std::size_t count, OwnerAt owner_at, engine::ThreadPool* pool,
                             bool sorted, std::size_t* candidates) {
    std::atomic<std::size_t> items{0};
    ConnectorSlices slices;
    slices.links = engine::gather_owned<std::pair<NodeId, NodeId>>(
        pool, count,
        [&](std::size_t k, std::vector<std::pair<NodeId, NodeId>>& out) {
            const auto first = static_cast<std::ptrdiff_t>(out.size());
            items.fetch_add(elect_owned(udg, cluster, owner_at(k), out),
                            std::memory_order_relaxed);
            if (!sorted) return;
            std::sort(out.begin() + first, out.end());
            out.erase(std::unique(out.begin() + first, out.end()), out.end());
        },
        &slices.offsets);
    if (candidates != nullptr) *candidates = items.load();
    return slices;
}

}  // namespace

ConnectorState elect_connectors(const GeometricGraph& udg, const ClusterState& cluster,
                                engine::ThreadPool* pool, std::size_t* candidates,
                                ConnectorSlices* slices) {
    const std::size_t n = udg.node_count();
    ConnectorSlices owned = elect_slices(
        udg, cluster, n, [](std::size_t k) { return static_cast<NodeId>(k); }, pool,
        slices != nullptr, candidates);

    // Per-node buckets instead of one global sort: the deduplicated
    // buckets of the smaller endpoints, in node order, are the sorted
    // edge set.
    const graph::NodeLists upper = graph::NodeLists::group_pairs(n, owned.links, pool);
    ConnectorState state;
    state.is_connector.assign(n, false);
    state.cds_edges.reserve(upper.entry_count());
    for (NodeId v = 0; v < n; ++v) {
        for (const NodeId w : upper[v]) {
            state.cds_edges.push_back({v, w});
            for (const NodeId end : {v, w}) {
                if (!cluster.is_dominator(end)) state.is_connector[end] = true;
            }
        }
    }
    if (slices != nullptr) *slices = std::move(owned);
    return state;
}

ConnectorSlices elect_connectors_at(const GeometricGraph& udg, const ClusterState& cluster,
                                    const std::vector<NodeId>& owners,
                                    engine::ThreadPool* pool) {
    return elect_slices(
        udg, cluster, owners.size(), [&](std::size_t k) { return owners[k]; }, pool,
        true, nullptr);
}

ConnectorState find_connectors_alzoubi(const GeometricGraph& udg,
                                       const ClusterState& cluster) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<bool> connector(n, false);
    std::set<std::pair<NodeId, NodeId>> edges;

    // Dominators of each node's 2-hop ball, for the "w two hops from v"
    // test: w is two hops from dominator v iff v is in w's two-hop
    // dominator list (w not adjacent to v, some common neighbor exists).
    for (NodeId u = 0; u < n; ++u) {
        if (!cluster.is_dominator(u)) continue;

        // Two-hop pairs: smallest-id common dominatee.
        std::set<NodeId> two_hop_dominators;
        for (const NodeId w : udg.neighbors(u)) {
            for (const NodeId v : cluster.dominators_of[w]) {
                if (v != u) two_hop_dominators.insert(v);
            }
        }
        for (const NodeId v : two_hop_dominators) {
            NodeId pick = graph::kInvalidNode;
            for (const NodeId w : udg.neighbors(u)) {
                if (udg.has_edge(w, v) && (pick == graph::kInvalidNode || w < pick)) {
                    pick = w;
                }
            }
            assert(pick != graph::kInvalidNode);
            connector[pick] = true;
            add_edge_once(edges, u, pick);
            add_edge_once(edges, pick, v);
        }

        // Three-hop pairs: smallest-id neighbor w two hops from v, then
        // w's smallest-id neighbor adjacent to v.
        std::set<NodeId> three_hop_dominators;
        for (const NodeId w : udg.neighbors(u)) {
            for (const NodeId v : cluster.two_hop_dominators_of[w]) {
                if (v != u && !two_hop_dominators.contains(v) && !udg.has_edge(u, v)) {
                    three_hop_dominators.insert(v);
                }
            }
        }
        for (const NodeId v : three_hop_dominators) {
            NodeId first = graph::kInvalidNode;
            for (const NodeId w : udg.neighbors(u)) {
                const auto& list = cluster.two_hop_dominators_of[w];
                if (std::binary_search(list.begin(), list.end(), v) &&
                    (first == graph::kInvalidNode || w < first)) {
                    first = w;
                }
            }
            assert(first != graph::kInvalidNode);
            NodeId second = graph::kInvalidNode;
            for (const NodeId x : udg.neighbors(first)) {
                if (udg.has_edge(x, v) && (second == graph::kInvalidNode || x < second)) {
                    second = x;
                }
            }
            assert(second != graph::kInvalidNode);
            connector[first] = true;
            connector[second] = true;
            add_edge_once(edges, u, first);
            add_edge_once(edges, first, second);
            add_edge_once(edges, second, v);
        }
    }
    return finish(n, connector, edges);
}

}  // namespace geospanner::protocol
