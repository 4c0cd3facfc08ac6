#include "proximity/udg.h"

#include <algorithm>
#include <utility>

#include "proximity/cell_grid.h"

namespace geospanner::proximity {

using graph::GeometricGraph;
using graph::NodeId;

GeometricGraph build_udg(std::vector<geom::Point> points, double radius) {
    require_grid_range(points, radius);
    const auto n = static_cast<NodeId>(points.size());
    if (n == 0 || radius <= 0.0) return GeometricGraph(std::move(points));

    const CompactCellGrid grid(points, radius);
    const double r2 = radius * radius;
    // Edges come out grouped by v with u > v; sorting each group makes
    // the list lexicographic, which the bulk constructor requires.
    std::vector<std::pair<NodeId, NodeId>> edges;
    std::size_t group_begin = 0;
    for (NodeId v = 0; v < n; ++v) {
        grid.for_neighbors_above(points[v], v, r2,
                                 [&](NodeId u) { edges.push_back({v, u}); });
        std::sort(edges.begin() + static_cast<std::ptrdiff_t>(group_begin), edges.end());
        group_begin = edges.size();
    }
    return GeometricGraph::from_edges(std::move(points), edges);
}

}  // namespace geospanner::proximity
