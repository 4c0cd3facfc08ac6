#include "proximity/ldel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>

#include "delaunay/delaunay.h"
#include "geom/predicates.h"
#include "proximity/cell_grid.h"
#include "proximity/classic.h"

namespace geospanner::proximity {

using geom::Point;
using graph::GeometricGraph;
using graph::NodeId;

TriangleKey make_triangle_key(NodeId x, NodeId y, NodeId z) {
    std::array<NodeId, 3> v{x, y, z};
    std::sort(v.begin(), v.end());
    return {v[0], v[1], v[2]};
}

namespace {

/// True iff p is strictly inside the CCW triangle (a, b, c).
bool strictly_inside_triangle(Point a, Point b, Point c, Point p) {
    return geom::orient_sign(a, b, p) > 0 && geom::orient_sign(b, c, p) > 0 &&
           geom::orient_sign(c, a, p) > 0;
}

/// Triangle corners in CCW order.
struct TrianglePoints {
    Point a, b, c;
};

TrianglePoints ccw_points(const GeometricGraph& g, TriangleKey t) {
    Point a = g.point(t.a);
    Point b = g.point(t.b);
    Point c = g.point(t.c);
    if (geom::orient_sign(a, b, c) < 0) std::swap(b, c);
    return {a, b, c};
}

bool intersect_impl(const TrianglePoints& s, const TrianglePoints& t) {
    const std::array<std::pair<Point, Point>, 3> se{{{s.a, s.b}, {s.b, s.c}, {s.c, s.a}}};
    const std::array<std::pair<Point, Point>, 3> te{{{t.a, t.b}, {t.b, t.c}, {t.c, t.a}}};
    for (const auto& [p1, p2] : se) {
        for (const auto& [q1, q2] : te) {
            if (geom::segments_properly_cross(p1, p2, q1, q2)) return true;
        }
    }
    for (const Point p : {t.a, t.b, t.c}) {
        if (strictly_inside_triangle(s.a, s.b, s.c, p)) return true;
    }
    for (const Point p : {s.a, s.b, s.c}) {
        if (strictly_inside_triangle(t.a, t.b, t.c, p)) return true;
    }
    return false;
}

bool cc_contains_impl(const TrianglePoints& s, const TrianglePoints& t) {
    for (const Point p : {t.a, t.b, t.c}) {
        if (geom::in_circumcircle(s.a, s.b, s.c, p) > 0) return true;
    }
    return false;
}

bool bbox_disjoint(const TrianglePoints& s, const TrianglePoints& t) {
    return std::max({s.a.x, s.b.x, s.c.x}) < std::min({t.a.x, t.b.x, t.c.x}) ||
           std::max({t.a.x, t.b.x, t.c.x}) < std::min({s.a.x, s.b.x, s.c.x}) ||
           std::max({s.a.y, s.b.y, s.c.y}) < std::min({t.a.y, t.b.y, t.c.y}) ||
           std::max({t.a.y, t.b.y, t.c.y}) < std::min({s.a.y, s.b.y, s.c.y});
}

/// Algorithm 3's removal rule for an intersecting pair, where `s` is the
/// triangle with the smaller canonical key. The lemma of [30] guarantees
/// at least one circumcircle test fires for genuinely intersecting
/// 1-localized Delaunay triangles in general position; for exactly-
/// cocircular configurations (where each triangle's vertices lie ON the
/// other's circumcircle and neither strict test fires) the larger
/// canonical key is removed as a deterministic tie-break.
Alg3Verdict alg3_verdict(const TrianglePoints& s, const TrianglePoints& t) {
    if (bbox_disjoint(s, t) || !intersect_impl(s, t)) return {};
    const bool remove_s = cc_contains_impl(s, t);
    const bool remove_t = cc_contains_impl(t, s);
    if (!remove_s && !remove_t) return {true, false, true};
    return {true, remove_s, remove_t};
}

/// Algorithm 3 over a sorted triangle set. The constructor precomputes
/// CCW corner points, bounding boxes, and a uniform bucket grid over the
/// boxes; removal_scan then tests the grid-pruned pairs.
class Alg3Filter {
  public:
    Alg3Filter(const GeometricGraph& g, const std::vector<TriangleKey>& triangles);

    /// Sets removed[i] for every triangle Algorithm 3 removes. Each
    /// intersecting pair is tested once, by the lane owning its lower
    /// index; marks only go from 0 to 1 (relaxed atomic stores), so the
    /// result does not depend on the lane count or write order.
    void removal_scan(std::vector<char>& removed, engine::ThreadPool* pool) const;

  private:
    struct Box {
        double min_x, max_x, min_y, max_y;
    };

    /// Calls fn(j) for every j whose bucket could hold a box
    /// intersecting box i (includes i itself; callers filter).
    template <typename Fn>
    void for_each_box_neighbor(std::size_t i, Fn&& fn) const;

    std::vector<TrianglePoints> tris_;
    std::vector<Box> boxes_;
    double cell_side_ = 1.0;
    // Occupied cells in CSR form: `cell_keys_` holds the sorted distinct
    // cell coordinates, bucket k is cell_items_[cell_offsets_[k],
    // cell_offsets_[k+1]). Lookups binary-search the key column — the
    // three columns stay contiguous, unlike per-cell node vectors.
    std::vector<std::pair<long long, long long>> cell_keys_;
    std::vector<std::uint32_t> cell_offsets_;
    std::vector<std::uint32_t> cell_items_;
};

Alg3Filter::Alg3Filter(const GeometricGraph& g, const std::vector<TriangleKey>& triangles) {
    tris_.reserve(triangles.size());
    boxes_.reserve(triangles.size());
    double max_extent = 0.0;
    for (const auto& t : triangles) {
        const TrianglePoints p = ccw_points(g, t);
        tris_.push_back(p);
        const Box box{std::min({p.a.x, p.b.x, p.c.x}), std::max({p.a.x, p.b.x, p.c.x}),
                      std::min({p.a.y, p.b.y, p.c.y}), std::max({p.a.y, p.b.y, p.c.y})};
        boxes_.push_back(box);
        max_extent = std::max({max_extent, box.max_x - box.min_x, box.max_y - box.min_y});
    }
    cell_side_ = max_extent > 0.0 ? max_extent : 1.0;
    // CSR bucket build: sort (cell, index) pairs, then split the index
    // column at cell boundaries. One allocation each, no per-cell nodes.
    std::vector<std::pair<std::pair<long long, long long>, std::uint32_t>> entries;
    entries.reserve(tris_.size());
    for (std::size_t i = 0; i < tris_.size(); ++i) {
        const CellCoord c = cell_of({boxes_[i].min_x, boxes_[i].min_y}, cell_side_);
        entries.push_back({{c.first, c.second}, static_cast<std::uint32_t>(i)});
    }
    std::sort(entries.begin(), entries.end());
    cell_items_.reserve(entries.size());
    for (std::size_t k = 0; k < entries.size(); ++k) {
        if (k == 0 || entries[k].first != entries[k - 1].first) {
            cell_keys_.push_back(entries[k].first);
            cell_offsets_.push_back(static_cast<std::uint32_t>(k));
        }
        cell_items_.push_back(entries[k].second);
    }
    cell_offsets_.push_back(static_cast<std::uint32_t>(entries.size()));
}

template <typename Fn>
void Alg3Filter::for_each_box_neighbor(std::size_t i, Fn&& fn) const {
    // Boxes are bucketed by their min corner and no box extent exceeds
    // cell_side_, so any box intersecting box i has its min corner in
    // [min - cell_side_, max] per axis — at most a 3x3 cell block.
    const Box& box = boxes_[i];
    const auto [x_lo, y_lo] =
        cell_of({box.min_x - cell_side_, box.min_y - cell_side_}, cell_side_);
    const auto [x_hi, y_hi] = cell_of({box.max_x, box.max_y}, cell_side_);
    for (long long cx = x_lo; cx <= x_hi; ++cx) {
        for (long long cy = y_lo; cy <= y_hi; ++cy) {
            const auto it = std::lower_bound(cell_keys_.begin(), cell_keys_.end(),
                                             std::pair{cx, cy});
            if (it == cell_keys_.end() || *it != std::pair{cx, cy}) continue;
            const auto k = static_cast<std::size_t>(it - cell_keys_.begin());
            for (std::uint32_t s = cell_offsets_[k]; s < cell_offsets_[k + 1]; ++s) {
                fn(static_cast<std::size_t>(cell_items_[s]));
            }
        }
    }
}

void Alg3Filter::removal_scan(std::vector<char>& removed,
                              engine::ThreadPool* pool) const {
    removed.assign(tris_.size(), 0);
    const auto mark = [&](std::size_t k) {
        std::atomic_ref<char>(removed[k]).store(1, std::memory_order_relaxed);
    };
    engine::parallel_for(pool, 0, tris_.size(), [&](std::size_t i) {
        const auto& s = tris_[i];
        // The grid finds every intersecting pair from both sides; the
        // j > i filter processes each unordered pair exactly once.
        for_each_box_neighbor(i, [&](std::size_t j) {
            if (j <= i) return;
            const Alg3Verdict r = alg3_verdict(s, tris_[j]);
            if (r.remove_smaller) mark(i);
            if (r.remove_larger) mark(j);
        });
    });
}

}  // namespace

std::vector<TriangleKey> local_triangles_at(const GeometricGraph& udg, NodeId u) {
    LocalDelaunayScratch scratch;
    std::vector<TriangleKey> result;
    local_triangles_at(udg, u, scratch, result);
    return result;
}

void local_triangles_at(const GeometricGraph& udg, NodeId u,
                        LocalDelaunayScratch& scratch, std::vector<TriangleKey>& out) {
    out.clear();
    const auto nbrs = udg.neighbors(u);
    if (nbrs.size() < 2) return;

    // Local point set: u first, then its neighbors. Duplicate-coordinate
    // neighbors dedup onto local index 0, so "incident to u" is exactly
    // "contains local index 0".
    scratch.pts.clear();
    scratch.ids.clear();
    scratch.tris.clear();
    scratch.pts.push_back(udg.point(u));
    scratch.ids.push_back(u);
    for (const NodeId v : nbrs) {
        scratch.pts.push_back(udg.point(v));
        scratch.ids.push_back(v);
    }

    if (!delaunay::triangulate(scratch.pts, scratch.ws, scratch.tris)) return;
    for (const auto& t : scratch.tris) {
        if (t.a != 0 && t.b != 0 && t.c != 0) continue;  // Only triangles at u matter.
        const NodeId x = scratch.ids[t.a];
        const NodeId y = scratch.ids[t.b];
        const NodeId z = scratch.ids[t.c];
        // All sides at most one unit <=> all sides UDG edges; sides
        // incident to u are UDG edges by construction.
        const auto [p, q] = [&] {
            if (x == u) return std::pair{y, z};
            if (y == u) return std::pair{x, z};
            return std::pair{x, y};
        }();
        if (!udg.has_edge(p, q)) continue;
        out.push_back(make_triangle_key(x, y, z));
    }
    std::sort(out.begin(), out.end());
}

bool triangles_intersect(const GeometricGraph& g, TriangleKey s, TriangleKey t) {
    return intersect_impl(ccw_points(g, s), ccw_points(g, t));
}

bool circumcircle_contains_vertex_of(const GeometricGraph& g, TriangleKey s,
                                     TriangleKey t) {
    return cc_contains_impl(ccw_points(g, s), ccw_points(g, t));
}

Alg3Verdict alg3_pair(const GeometricGraph& g, TriangleKey s, TriangleKey t) {
    assert(s < t);
    return alg3_verdict(ccw_points(g, s), ccw_points(g, t));
}

namespace {

/// local_triangles_at for node_at(0 .. count-1), slices joined in order.
template <typename NodeAt>
LocalTriangles local_slices(const GeometricGraph& udg, std::size_t count, NodeAt node_at,
                            engine::ThreadPool* pool) {
    LocalTriangles local;
    local.keys = engine::gather_owned<TriangleKey>(
        pool, count,
        [&](std::size_t k, std::vector<TriangleKey>& out) {
            // One triangulation arena per lane, reused across nodes and
            // builds: the per-node local Delaunay cost is allocator-bound
            // without it. Results are independent of scratch history.
            thread_local LocalDelaunayScratch scratch;
            thread_local std::vector<TriangleKey> mine;
            local_triangles_at(udg, node_at(k), scratch, mine);
            out.insert(out.end(), mine.begin(), mine.end());
        },
        &local.offsets);
    return local;
}

}  // namespace

LocalTriangles local_triangles(const GeometricGraph& udg, const std::vector<NodeId>& nodes,
                               engine::ThreadPool* pool) {
    return local_slices(udg, nodes.size(), [&](std::size_t k) { return nodes[k]; }, pool);
}

std::vector<TriangleKey> ldel1_triangles(const GeometricGraph& udg,
                                         engine::ThreadPool* pool, LocalTriangles* local) {
    const std::size_t n = udg.node_count();
    LocalTriangles all = local_slices(
        udg, n, [](std::size_t k) { return static_cast<NodeId>(k); }, pool);
    const auto& offsets = all.offsets;
    const auto slice_has = [&](NodeId v, TriangleKey t) {
        return std::binary_search(
            all.keys.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
            all.keys.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]), t);
    };

    // A triangle is 1-localized Delaunay iff it appears in the local
    // Delaunay triangulation of all three of its vertices (equivalent to
    // circumcircle emptiness over the union of their 1-hop neighborhoods,
    // since a Delaunay triangle of N1(x) has its circumcircle empty of
    // N1(x)). Each triangle is decided once, at its least vertex, so the
    // owner-order concatenation is already globally sorted.
    std::vector<TriangleKey> result = engine::gather_owned<TriangleKey>(
        pool, n, [&](std::size_t u, std::vector<TriangleKey>& out) {
            for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
                const TriangleKey t = all.keys[k];
                if (t.a == u && slice_has(t.b, t) && slice_has(t.c, t)) out.push_back(t);
            }
        });
    if (local != nullptr) *local = std::move(all);
    return result;
}

std::vector<TriangleKey> ldel1_triangles_reference(const GeometricGraph& udg) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<TriangleKey> result;
    for (NodeId u = 0; u < n; ++u) {
        const auto nbrs = udg.neighbors(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
                const NodeId v = nbrs[i];
                const NodeId w = nbrs[j];
                if (u > v || u > w) continue;  // Enumerate at the least vertex.
                if (!udg.has_edge(v, w)) continue;
                const Point pu = udg.point(u);
                const Point pv = udg.point(v);
                const Point pw = udg.point(w);
                if (geom::orient_sign(pu, pv, pw) == 0) continue;  // Degenerate.
                // Circumcircle must be empty of N1(u) ∪ N1(v) ∪ N1(w).
                bool empty = true;
                for (const NodeId center : {u, v, w}) {
                    for (const NodeId x : udg.neighbors(center)) {
                        if (x == u || x == v || x == w) continue;
                        if (geom::in_circumcircle(pu, pv, pw, udg.point(x)) > 0) {
                            empty = false;
                            break;
                        }
                    }
                    if (!empty) break;
                }
                if (empty) result.push_back(make_triangle_key(u, v, w));
            }
        }
    }
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
}

std::vector<TriangleKey> planarize_triangles(const GeometricGraph& udg,
                                             const std::vector<TriangleKey>& triangles,
                                             engine::ThreadPool* pool) {
    std::vector<char> removed;
    Alg3Filter(udg, triangles).removal_scan(removed, pool);
    std::vector<TriangleKey> kept;
    for (std::size_t i = 0; i < triangles.size(); ++i) {
        if (!removed[i]) kept.push_back(triangles[i]);
    }
    return kept;
}

GeometricGraph ldel_graph(const GeometricGraph& udg,
                          const std::vector<TriangleKey>& triangles,
                          engine::ThreadPool* pool) {
    assert(std::is_sorted(triangles.begin(), triangles.end()));
    using Edge = std::pair<NodeId, NodeId>;
    const std::size_t n = udg.node_count();
    // Sides by smaller endpoint: a triangle's sides ab and ac belong to its
    // least vertex a, whose triangles are the slice [first[a], first[a+1])
    // of the sorted set; the sides bc are grouped by b.
    std::vector<std::size_t> first(n + 1, 0);
    std::vector<Edge> middle;
    middle.reserve(triangles.size());
    for (const auto& t : triangles) {
        ++first[t.a + 1];
        middle.emplace_back(t.b, t.c);
    }
    for (std::size_t a = 0; a < n; ++a) first[a + 1] += first[a];
    const graph::NodeLists middle_sides = graph::NodeLists::group_pairs(n, middle, pool);

    // Node u keeps an upper UDG neighbor v iff uv is a triangle side or
    // passes the Gabriel test, so each edge is decided once and only the
    // non-side edges pay for the test.
    const std::vector<Edge> edges = engine::gather_owned<Edge>(
        pool, n, [&](std::size_t i, std::vector<Edge>& out) {
            const auto u = static_cast<NodeId>(i);
            thread_local std::vector<NodeId> sides;
            sides.clear();
            for (std::size_t k = first[u]; k < first[u + 1]; ++k) {
                sides.push_back(triangles[k].b);
                sides.push_back(triangles[k].c);
            }
            const auto more = middle_sides[u];
            sides.insert(sides.end(), more.begin(), more.end());
            std::sort(sides.begin(), sides.end());
            const auto nbrs = udg.neighbors(u);
            for (auto it = std::upper_bound(nbrs.begin(), nbrs.end(), u); it != nbrs.end();
                 ++it) {
                if (std::binary_search(sides.begin(), sides.end(), *it) ||
                    is_gabriel_edge(udg, u, *it)) {
                    out.emplace_back(u, *it);
                }
            }
        });
    return GeometricGraph::from_edges(udg.points(), edges);
}

GeometricGraph build_ldel1(const GeometricGraph& udg) {
    return ldel_graph(udg, ldel1_triangles(udg));
}

GeometricGraph build_pldel(const GeometricGraph& udg) {
    return ldel_graph(udg, planarize_triangles(udg, ldel1_triangles(udg)));
}

}  // namespace geospanner::proximity
