#include "proximity/ldel_k.h"

#include <cassert>

#include "geom/predicates.h"
#include "graph/khop.h"

namespace geospanner::proximity {

using geom::Point;
using graph::GeometricGraph;
using graph::NodeId;

std::vector<TriangleKey> ldel_k_triangles(const GeometricGraph& udg, int k) {
    assert(k >= 1);
    // Neighborhoods only grow with k, so LDel^k triangles are a subset
    // of LDel^1 triangles: filter the k = 1 candidates against the
    // larger neighborhoods.
    std::vector<TriangleKey> candidates = ldel1_triangles(udg);
    if (k == 1) return candidates;

    std::vector<TriangleKey> result;
    for (const TriangleKey& t : candidates) {
        const Point pa = udg.point(t.a);
        const Point pb = udg.point(t.b);
        const Point pc = udg.point(t.c);
        bool empty = true;
        for (const NodeId center : {t.a, t.b, t.c}) {
            for (const NodeId x : graph::k_hop_neighborhood(udg, center, k)) {
                if (x == t.a || x == t.b || x == t.c) continue;
                if (geom::in_circumcircle(pa, pb, pc, udg.point(x)) > 0) {
                    empty = false;
                    break;
                }
            }
            if (!empty) break;
        }
        if (empty) result.push_back(t);
    }
    return result;
}

GeometricGraph build_ldel_k(const GeometricGraph& udg, int k) {
    return ldel_graph(udg, ldel_k_triangles(udg, k));
}

}  // namespace geospanner::proximity
