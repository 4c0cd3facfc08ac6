// Localized Delaunay graph LDel⁽¹⁾ and its planarization PLDel
// (Li, Calinescu, Wan [30]; Algorithms 2 and 3 of the paper).
//
// A triangle uvw with all sides in the UDG is a *1-localized Delaunay
// triangle* iff its circumcircle contains no node of N1(u) ∪ N1(v) ∪
// N1(w). LDel⁽¹⁾(V) consists of all Gabriel edges plus the edges of all
// 1-localized Delaunay triangles; it has thickness 2. Algorithm 3 then
// removes, from every pair of *intersecting* triangles, the one whose
// circumcircle contains a vertex of the other, yielding the planar PLDel.
//
// These functions are the centralized reference; the message-passing
// versions live in src/protocol and are tested for exact equality with
// these results.
#pragma once

#include <compare>
#include <cstdint>
#include <utility>
#include <vector>

#include "delaunay/delaunay.h"
#include "engine/thread_pool.h"
#include "graph/geometric_graph.h"

namespace geospanner::proximity {

/// Canonical triangle key: a < b < c.
struct TriangleKey {
    graph::NodeId a = 0;
    graph::NodeId b = 0;
    graph::NodeId c = 0;

    friend bool operator==(TriangleKey, TriangleKey) = default;
    friend auto operator<=>(TriangleKey, TriangleKey) = default;
};

[[nodiscard]] TriangleKey make_triangle_key(graph::NodeId x, graph::NodeId y,
                                            graph::NodeId z);

/// Triangles incident to u in the Delaunay triangulation of N1(u) whose
/// three sides are all UDG edges — what node u computes locally in
/// Algorithm 2. Sorted canonical keys.
[[nodiscard]] std::vector<TriangleKey> local_triangles_at(const graph::GeometricGraph& udg,
                                                          graph::NodeId u);

/// Arena for repeated local_triangles_at calls: the per-node local
/// Delaunay computation runs once per node per build, so its transient
/// state (neighborhood point set, id map, the triangulation workspace)
/// lives here and is reused call to call — zero steady-state heap
/// traffic. One scratch per thread; results never depend on history.
struct LocalDelaunayScratch {
    delaunay::Workspace ws;
    std::vector<geom::Point> pts;
    std::vector<graph::NodeId> ids;
    std::vector<delaunay::Triangle> tris;
};

/// Scratch-reusing form of local_triangles_at: replaces `out` with the
/// same sorted canonical keys the one-shot overload returns.
void local_triangles_at(const graph::GeometricGraph& udg, graph::NodeId u,
                        LocalDelaunayScratch& scratch, std::vector<TriangleKey>& out);

/// Strict geometric intersection of two distinct triangles: some edge
/// pair properly crosses or a vertex of one lies strictly inside the
/// other (sharing vertices or edges alone does not count). Exact.
[[nodiscard]] bool triangles_intersect(const graph::GeometricGraph& g, TriangleKey s,
                                       TriangleKey t);

/// True iff the circumcircle of s strictly contains some vertex of t —
/// Algorithm 3's removal trigger. Exact.
[[nodiscard]] bool circumcircle_contains_vertex_of(const graph::GeometricGraph& g,
                                                   TriangleKey s, TriangleKey t);

/// Per-node local triangle lists in CSR form: slice k is
/// keys[offsets[k], offsets[k+1]), sorted.
struct LocalTriangles {
    std::vector<std::size_t> offsets;
    std::vector<TriangleKey> keys;
};

/// local_triangles_at for every node of `nodes`, on `pool`'s lanes when
/// given: slice k holds nodes[k]'s triangles. The first pass of
/// ldel1_triangles, over a node list.
[[nodiscard]] LocalTriangles local_triangles(const graph::GeometricGraph& udg,
                                             const std::vector<graph::NodeId>& nodes,
                                             engine::ThreadPool* pool = nullptr);

/// All 1-localized Delaunay triangles of the UDG, sorted. Computed via
/// per-node local Delaunay triangulations (the efficient O(d log d)-per-
/// node formulation; equivalent to the circumcircle definition), node
/// by node on `pool`'s lanes when given. A triangle is kept iff it is in
/// the local lists of all three corners. `local`, when given, receives
/// every node's local list (slice v for node v).
[[nodiscard]] std::vector<TriangleKey> ldel1_triangles(const graph::GeometricGraph& udg,
                                                       engine::ThreadPool* pool = nullptr,
                                                       LocalTriangles* local = nullptr);

/// Definitional O(d^4)-per-node computation of the same triangle set:
/// enumerates UDG triangles and tests circumcircle emptiness against the
/// three 1-hop neighborhoods directly. For validation on small inputs.
[[nodiscard]] std::vector<TriangleKey> ldel1_triangles_reference(
    const graph::GeometricGraph& udg);

/// Algorithm 3's verdict on one pair of triangles.
struct Alg3Verdict {
    bool intersect = false;       ///< the pair strictly intersects
    bool remove_smaller = false;  ///< the smaller key is removed
    bool remove_larger = false;   ///< the larger key is removed
};

/// Algorithm 3's pair rule for distinct triangles s < t (canonical
/// keys): when they intersect, remove the one whose circumcircle strictly
/// contains a vertex of the other; when neither test fires (exactly
/// cocircular corners), remove the larger key. The one copy of the rule,
/// run by planarize_triangles and by the incremental patcher. Exact.
[[nodiscard]] Alg3Verdict alg3_pair(const graph::GeometricGraph& g, TriangleKey s,
                                    TriangleKey t);

/// Subset of `triangles` (sorted) surviving Algorithm 3: a triangle is
/// removed iff it intersects another triangle of the set and its
/// circumcircle strictly contains one of the other's vertices; for
/// exactly-cocircular crossings, where neither strict test fires, the
/// larger key is removed. Sorted.
///
/// One kernel at every lane count: a bucket grid over the triangles'
/// bounding boxes (sides are UDG edges, so only a 3x3 cell block can
/// hold intersecting partners) prunes the pairs, and each intersecting
/// pair is tested once, by the lane owning its lower index. A pair only
/// ever sets removal marks from 0 to 1, so the order in which lanes write
/// them cannot change the result.
[[nodiscard]] std::vector<TriangleKey> planarize_triangles(
    const graph::GeometricGraph& udg, const std::vector<TriangleKey>& triangles,
    engine::ThreadPool* pool = nullptr);

/// Gabriel edges of `udg` plus the three sides of every triangle — the
/// graph every LDel variant assembles from its triangle set (sorted
/// canonical keys whose sides are `udg` edges). Each edge is decided
/// once, by its smaller endpoint on `pool`'s lanes: a triangle side is
/// kept outright, any other edge takes the Gabriel test.
[[nodiscard]] graph::GeometricGraph ldel_graph(const graph::GeometricGraph& udg,
                                               const std::vector<TriangleKey>& triangles,
                                               engine::ThreadPool* pool = nullptr);

/// LDel⁽¹⁾(V): Gabriel edges plus edges of all 1-localized Delaunay
/// triangles. Thickness 2; not necessarily planar.
[[nodiscard]] graph::GeometricGraph build_ldel1(const graph::GeometricGraph& udg);

/// PLDel(V): Gabriel edges plus edges of the Algorithm-3 surviving
/// triangles. Planar.
[[nodiscard]] graph::GeometricGraph build_pldel(const graph::GeometricGraph& udg);

}  // namespace geospanner::proximity
