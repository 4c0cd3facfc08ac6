// Finding connectors (Algorithm 1 of the paper).
//
// After clustering, dominators that are two or three UDG hops apart must
// be joined through dominatees. Candidates announce themselves with
// TryConnector and an election picks, among mutually audible candidates,
// the ones with locally smallest id (several non-adjacent candidates can
// win for the same dominator pair — the paper shows at most 2 for a
// two-hop pair, and notes the redundancy increases backbone robustness).
//
//  * Two-hop pairs: a dominatee adjacent to both dominators u and v is a
//    candidate; a winner w contributes backbone edges (u,w), (w,v).
//  * Three-hop pairs (ordered: u searches a path to v): a dominatee w of
//    u that knows v as a two-hop dominator is a first-leg candidate; a
//    winner w contributes (u,w) and triggers the second-leg election
//    among dominatees x of v adjacent to some winner w, contributing
//    (w,x) and (x,v).
//
// The dominators + elected connectors with these edges form the CDS
// backbone graph.
#pragma once

#include <utility>
#include <vector>

#include "protocol/cluster_state.h"
#include "protocol/messages.h"

namespace geospanner::protocol {

struct ConnectorState {
    std::vector<bool> is_connector;                       ///< per node
    std::vector<std::pair<NodeId, NodeId>> cds_edges;     ///< backbone links, u < v, sorted
};

/// Runs the distributed connector election over the UDG radio graph,
/// continuing from a completed clustering (same Net for cumulative
/// message counts).
[[nodiscard]] ConnectorState run_connectors(Net& net, const graph::GeometricGraph& udg,
                                            const ClusterState& cluster);

/// Centralized reference producing bit-identical output (same elections
/// evaluated directly on the graph, through ordered maps keyed by
/// dominator pair). Kept as the independent oracle of elect_connectors.
[[nodiscard]] ConnectorState find_connectors(const graph::GeometricGraph& udg,
                                             const ClusterState& cluster);

/// Per-owner output of the connector elections: dominator u's CDS links
/// (a < b, sorted, duplicate-free) are links[offsets[k], offsets[k+1])
/// for the k-th owner elected (u itself on a full run; owners[k] for
/// elect_connectors_at). A node's slice is empty unless it is a
/// dominator.
struct ConnectorSlices {
    std::vector<std::size_t> offsets;
    std::vector<std::pair<NodeId, NodeId>> links;
};

/// The same elections as an owner-computes kernel, the one the builders
/// run: dominator u gathers the candidates of its pairs (u, ·) — two-hop
/// pairs u < v and three-hop ordered pairs u → v — from its dominatee
/// neighbours, sorts them locally and decides every election of those
/// pairs, second legs included. Owners run on `pool`'s lanes when given
/// and their link slices join in owner order, so the output equals
/// find_connectors at any lane count. A connector is a dominatee
/// endpoint of an elected link. `candidates`, when given, receives the
/// number of candidate entries evaluated over all three phases;
/// `slices`, when given, receives every node's link slice.
[[nodiscard]] ConnectorState elect_connectors(const graph::GeometricGraph& udg,
                                              const ClusterState& cluster,
                                              engine::ThreadPool* pool = nullptr,
                                              std::size_t* candidates = nullptr,
                                              ConnectorSlices* slices = nullptr);

/// elect_connectors' owner body over `owners` only: slice k holds the
/// links owners[k] elects under `cluster`. An owner's elections read its
/// 2-hop ball only, which is what lets dynamic::DynamicSpanner re-elect
/// the dominators of a dirty region and keep every other slice.
[[nodiscard]] ConnectorSlices elect_connectors_at(const graph::GeometricGraph& udg,
                                                  const ClusterState& cluster,
                                                  const std::vector<NodeId>& owners,
                                                  engine::ThreadPool* pool = nullptr);

/// The alternative prior art the paper reviews (Alzoubi/Wan/Frieder):
/// dominator-initiated selection. For every ordered dominator pair
/// (u, v) at most 3 hops apart, u picks the smallest-id dominatee
/// adjacent to both (2 hops), or the smallest-id neighbor w that is two
/// hops from v, which in turn picks the smallest-id node completing the
/// path (3 hops). Exactly one path per ordered pair — a leaner CDS than
/// Algorithm 1's election, with none of its redundancy (see
/// bench_ablation_robustness).
[[nodiscard]] ConnectorState find_connectors_alzoubi(const graph::GeometricGraph& udg,
                                                     const ClusterState& cluster);

}  // namespace geospanner::protocol
