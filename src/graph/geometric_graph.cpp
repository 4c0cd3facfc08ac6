#include "graph/geometric_graph.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace geospanner::graph {

NodeId GeometricGraph::add_node(geom::Point p) {
    points_.push_back(p);
    adjacency_.append_list();
    return static_cast<NodeId>(points_.size() - 1);
}

bool GeometricGraph::add_edge(NodeId u, NodeId v) {
    assert(u != v && u < node_count() && v < node_count());
    if (!adjacency_.insert(u, v)) return false;
    adjacency_.insert(v, u);
    ++edge_count_;
    return true;
}

bool GeometricGraph::remove_edge(NodeId u, NodeId v) {
    assert(u < node_count() && v < node_count());
    if (!adjacency_.erase(u, v)) return false;
    adjacency_.erase(v, u);
    --edge_count_;
    return true;
}

bool GeometricGraph::has_edge(NodeId u, NodeId v) const {
    if (u >= node_count() || v >= node_count()) return false;
    return adjacency_.contains(u, v);
}

std::vector<std::pair<NodeId, NodeId>> GeometricGraph::edges() const {
    std::vector<std::pair<NodeId, NodeId>> result;
    result.reserve(edge_count_);
    for (NodeId u = 0; u < node_count(); ++u) {
        for (const NodeId v : adjacency_[u]) {
            if (u < v) result.emplace_back(u, v);
        }
    }
    return result;
}

GeometricGraph GeometricGraph::from_edges(
    std::vector<geom::Point> points,
    const std::vector<std::pair<NodeId, NodeId>>& sorted_edges) {
    assert(std::is_sorted(sorted_edges.begin(), sorted_edges.end()) &&
           std::adjacent_find(sorted_edges.begin(), sorted_edges.end()) ==
               sorted_edges.end());
    const std::size_t n = points.size();
    std::vector<std::size_t> offsets(n + 1, 0);
    for (const auto& [u, v] : sorted_edges) {
        assert(u < v && v < n);
        ++offsets[u + 1];
        ++offsets[v + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    // One pass in lexicographic order: node x first receives its lower
    // neighbors (pairs (w, x), ascending in w and all preceding the
    // pairs (x, ·)), then its higher ones (pairs (x, y), ascending in
    // y), so every list comes out sorted without a merge.
    std::vector<NodeId> entries(offsets[n]);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : sorted_edges) {
        entries[cursor[u]++] = v;
        entries[cursor[v]++] = u;
    }
    GeometricGraph g;
    g.points_ = std::move(points);
    g.adjacency_ = NodeLists::from_csr(offsets, std::move(entries));
    g.edge_count_ = sorted_edges.size();
    return g;
}

GeometricGraph GeometricGraph::from_adjacency(std::vector<geom::Point> points,
                                             NodeLists adjacency) {
    assert(adjacency.size() == points.size() && adjacency.entry_count() % 2 == 0);
    GeometricGraph g;
    g.points_ = std::move(points);
    g.adjacency_ = std::move(adjacency);
    g.edge_count_ = g.adjacency_.entry_count() / 2;
    return g;
}

GeometricGraph GeometricGraph::united_with(const NodeLists& extra,
                                          engine::ThreadPool* pool) const {
    assert(extra.size() == node_count());
    return from_adjacency(points_,
                          NodeLists::gather(pool, node_count(),
                                            [&](std::size_t v, std::vector<NodeId>& out) {
                                                const auto mine = adjacency_[v];
                                                const auto more = extra[v];
                                                std::set_union(mine.begin(), mine.end(),
                                                               more.begin(), more.end(),
                                                               std::back_inserter(out));
                                            }));
}

bool operator==(const GeometricGraph& a, const GeometricGraph& b) {
    return a.points_ == b.points_ && a.adjacency_ == b.adjacency_;
}

}  // namespace geospanner::graph
