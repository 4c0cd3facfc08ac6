// Unit disk graph construction.
//
// The UDG is the ground-truth communication graph of the paper's model:
// two nodes are linked iff their Euclidean distance is at most the
// (common) transmission radius. Built with a uniform grid in O(n + m).
#pragma once

#include <vector>

#include "graph/geometric_graph.h"

namespace geospanner::proximity {

/// Builds the unit disk graph over `points` with the given transmission
/// radius (edge iff distance <= radius). Throws std::invalid_argument
/// on input require_grid_range refuses.
[[nodiscard]] graph::GeometricGraph build_udg(std::vector<geom::Point> points, double radius);

}  // namespace geospanner::proximity
