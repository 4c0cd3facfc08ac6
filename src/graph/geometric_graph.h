// Geometric graph: a fixed set of plane points plus an undirected edge set.
//
// Every topology this library builds — UDG, RNG, Gabriel, Yao, Delaunay
// variants, CDS backbones — is a GeometricGraph over the same node set, so
// they can be compared edge-for-edge and measured with the same metrics.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/vec2.h"
#include "graph/node_lists.h"

namespace geospanner::graph {

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Undirected graph on a fixed point set. Invariants: adjacency lists are
/// sorted, duplicate-free, and symmetric (u in adj[v] iff v in adj[u]);
/// no self-loops.
///
/// Adjacency lives in one NodeLists slab (node_lists.h), so copying a
/// graph is a handful of flat vector copies. Span contract: add_edge,
/// remove_edge and add_node may move the slab and invalidate every span
/// returned by neighbors() before the call, for all nodes, not only the
/// endpoints. A loop that mutates a graph while walking one of its
/// neighbor lists must copy that list into a local first. set_point
/// leaves spans valid.
class GeometricGraph {
  public:
    GeometricGraph() = default;
    explicit GeometricGraph(std::vector<geom::Point> points)
        : points_(std::move(points)), adjacency_(points_.size()) {}

    [[nodiscard]] std::size_t node_count() const noexcept { return points_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

    [[nodiscard]] geom::Point point(NodeId v) const { return points_[v]; }
    [[nodiscard]] const std::vector<geom::Point>& points() const noexcept { return points_; }

    [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
        return adjacency_[v];
    }
    [[nodiscard]] std::size_t degree(NodeId v) const { return adjacency_[v].size(); }

    /// Every adjacency list at once (read-only).
    [[nodiscard]] const NodeLists& adjacency() const noexcept { return adjacency_; }

    /// Moves node v to `p`. Edges are untouched: callers maintaining a
    /// proximity graph (UDG) must re-derive the incident edge set
    /// themselves (see dynamic::DynamicSpanner).
    void set_point(NodeId v, geom::Point p) { points_[v] = p; }

    /// Appends an isolated node at `p` and returns its id (the new
    /// largest id, so existing ids and edges are undisturbed).
    NodeId add_node(geom::Point p);

    /// Adds the undirected edge {u, v}; no-op if already present.
    /// Returns true if the edge was inserted. Precondition: u != v.
    bool add_edge(NodeId u, NodeId v);

    /// Removes the undirected edge {u, v}; returns true if it was present.
    bool remove_edge(NodeId u, NodeId v);

    [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

    [[nodiscard]] double edge_length(NodeId u, NodeId v) const {
        return geom::distance(points_[u], points_[v]);
    }

    /// All edges as (u, v) pairs with u < v, in lexicographic order.
    [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

    /// Bulk construction from a lexicographically sorted, duplicate-free
    /// edge list with u < v per pair — the inverse of edges(). Equal to
    /// add_edge-ing every pair, but O(nodes + edges), writing an
    /// exact-capacity CSR slab with no list relocations; the engine's UDG
    /// stage and ldel_graph build their graphs this way.
    [[nodiscard]] static GeometricGraph from_edges(
        std::vector<geom::Point> points,
        const std::vector<std::pair<NodeId, NodeId>>& sorted_edges);

    /// Adopts `adjacency` — one sorted, duplicate-free list per point,
    /// symmetric and loop-free — as the graph's adjacency. The target of
    /// the owner-computes assembly kernels, which fill the CSR lists node
    /// by node (NodeLists::gather) instead of sorting an edge list.
    [[nodiscard]] static GeometricGraph from_adjacency(std::vector<geom::Point> points,
                                                       NodeLists adjacency);

    /// This graph ∪ `extra` (symmetric lists, one per node): each node's
    /// list is a sorted merge written straight into CSR, node by node on
    /// `pool`'s lanes when given.
    [[nodiscard]] GeometricGraph united_with(const NodeLists& extra,
                                             engine::ThreadPool* pool = nullptr) const;

    /// Structural equality: same points, same edge set (whatever the slab
    /// layouts left by the two graphs' mutation histories).
    friend bool operator==(const GeometricGraph& a, const GeometricGraph& b);

  private:
    std::vector<geom::Point> points_;
    NodeLists adjacency_;
    std::size_t edge_count_ = 0;
};

}  // namespace geospanner::graph
