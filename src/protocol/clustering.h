// Clustering: distributed maximal-independent-set election
// (Section III-A.1 of the paper, after Baker & Ephremides / Alzoubi).
//
// Protocol: every node starts *white*. A white node that is the best of
// its still-white neighborhood under the chosen criterion elects itself
// dominator and broadcasts IamDominator. A white node receiving
// IamDominator becomes a dominatee of the sender and broadcasts
// IamDominatee(self, dominator) — rebroadcast for every further
// dominator it acquires (at most five in total, Lemma 1). Nodes drop
// neighbors from their white list as these announcements arrive, so the
// local-optimum test always sees fresh information.
//
// Selection criteria (the paper reviews both families):
//  * kLowestId      — Baker/Ephremides, Alzoubi: smallest id wins; the
//                     elected set is the lexicographically-first MIS.
//  * kHighestDegree — Gerla/Tsai: largest UDG degree wins, ties to the
//                     smaller id (degrees are exchanged in the Hello
//                     beacon).
#pragma once

#include <compare>
#include <cstddef>

#include "protocol/cluster_state.h"
#include "protocol/messages.h"

namespace geospanner::protocol {

enum class ClusterPolicy {
    kLowestId,
    kHighestDegree,
};

/// Election ranking: smaller key wins. kLowestId ranks by id alone;
/// kHighestDegree prefers larger degree, then smaller id. Every form of
/// the MIS election (the protocol, cluster_reference and the dynamic
/// patcher's cascade) orders nodes by this key.
struct ElectionKey {
    std::size_t primary = 0;
    NodeId id = 0;
    friend auto operator<=>(const ElectionKey&, const ElectionKey&) = default;
};

[[nodiscard]] ElectionKey key_of(const graph::GeometricGraph& udg, NodeId v,
                                 ClusterPolicy policy);

/// Runs the distributed clustering protocol over the radio graph of
/// `net` (which must be the UDG). Every node first broadcasts a Hello
/// beacon (the paper's initial id announcement; it also carries the
/// node degree for the kHighestDegree criterion). Returns roles,
/// dominator lists, and the two-hop dominator lists harvested from
/// IamDominatee traffic (used later by connector election).
[[nodiscard]] ClusterState run_clustering(Net& net, const graph::GeometricGraph& udg,
                                          ClusterPolicy policy = ClusterPolicy::kLowestId);

/// Centralized reference: simulates the same synchronized rounds without
/// messages. Exactly equals the distributed protocol's output for any
/// policy. Tests assert this. Each round's local-optimum scan and the
/// derived dominator lists are per-node kernels on `pool`'s lanes when
/// given; the output does not depend on the lane count.
[[nodiscard]] ClusterState cluster_reference(const graph::GeometricGraph& udg,
                                             ClusterPolicy policy = ClusterPolicy::kLowestId,
                                             engine::ThreadPool* pool = nullptr);

/// The lexicographically-first MIS of the UDG (a node is a dominator iff
/// it has no smaller-id dominator neighbor, deciding in increasing id
/// order), with the same derived lists. Equals cluster_reference with
/// kLowestId — kept as an independent formulation for cross-checking.
[[nodiscard]] ClusterState lowest_id_mis(const graph::GeometricGraph& udg);

}  // namespace geospanner::protocol
