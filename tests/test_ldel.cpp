// Localized Delaunay graph LDel⁽¹⁾ and its planarization PLDel
// (centralized reference implementations).
#include "proximity/ldel.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "engine/thread_pool.h"
#include "geom/predicates.h"
#include "graph/metrics.h"
#include "graph/planarity.h"
#include "graph/shortest_paths.h"
#include "proximity/classic.h"
#include "proximity/udg.h"
#include "random/rng.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner::proximity {
namespace {

using graph::GeometricGraph;

TEST(TriangleKey, Canonicalization) {
    EXPECT_EQ(make_triangle_key(3, 1, 2), (TriangleKey{1, 2, 3}));
    EXPECT_EQ(make_triangle_key(1, 2, 3), make_triangle_key(2, 3, 1));
    EXPECT_LT(make_triangle_key(1, 2, 3), make_triangle_key(1, 2, 4));
}

class LdelSweep : public ::testing::TestWithParam<test::SweepParam> {
  protected:
    GeometricGraph udg_;
    void SetUp() override {
        const auto p = GetParam();
        udg_ = test::connected_udg(p.n, 200.0, p.radius, p.seed);
        ASSERT_GT(udg_.node_count(), 0u);
    }
};

TEST_P(LdelSweep, FastMatchesDefinitionalReference) {
    // The per-node local-Delaunay formulation must equal the circumcircle
    // definition exactly (general-position inputs).
    EXPECT_EQ(ldel1_triangles(udg_), ldel1_triangles_reference(udg_));
}

TEST_P(LdelSweep, ContainsGabrielAndUdel) {
    const auto ldel = build_ldel1(udg_);
    for (const auto& [u, v] : build_gabriel(udg_).edges()) {
        ASSERT_TRUE(ldel.has_edge(u, v)) << "Gabriel edge missing";
    }
    // UDel ⊆ LDel1: a Delaunay triangle with unit edges has a globally
    // empty circumcircle, hence an empty one over the 1-hop unions.
    // (Delaunay *edges* of UDel that are in no unit triangle are Gabriel
    // or hull edges; we check triangle edges only via the containment of
    // the full UDel edge set, which holds on general-position inputs.)
    const auto udel = build_udel(udg_);
    std::size_t missing = 0;
    for (const auto& [u, v] : udel.edges()) {
        if (!ldel.has_edge(u, v)) ++missing;
    }
    EXPECT_EQ(missing, 0u);
}

TEST_P(LdelSweep, PlanarizedIsPlanar) {
    // The shared certificate names the crossing edge pair on failure.
    const auto report = verify::check_planarity_certificate(build_pldel(udg_));
    EXPECT_TRUE(report.pass) << report.summary();
}

TEST_P(LdelSweep, PlanarizedStaysConnectedAndSpans) {
    const auto pldel = build_pldel(udg_);
    EXPECT_TRUE(graph::is_connected(pldel));
    const auto stretch = graph::length_stretch(udg_, pldel);
    EXPECT_EQ(stretch.disconnected_pairs, 0u);
    // Li et al. prove a ~2.5 worst-case factor for LDel; random instances
    // stay comfortably below 3.
    EXPECT_LT(stretch.max, 3.0);
}

TEST_P(LdelSweep, PlanarizationOnlyRemovesTriangles) {
    const auto all = ldel1_triangles(udg_);
    const auto kept = planarize_triangles(udg_, all);
    EXPECT_LE(kept.size(), all.size());
    for (const auto& t : kept) {
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), t));
    }
    // Surviving triangles are pairwise non-intersecting.
    for (std::size_t i = 0; i < kept.size(); ++i) {
        for (std::size_t j = i + 1; j < kept.size(); ++j) {
            ASSERT_FALSE(triangles_intersect(udg_, kept[i], kept[j]));
        }
    }
}

TEST_P(LdelSweep, ThicknessTwoEdgeBound) {
    // LDel1 has thickness 2, hence at most 6n - 12 edges (and in
    // practice far fewer).
    const auto ldel = build_ldel1(udg_);
    EXPECT_LE(ldel.edge_count(), 6 * ldel.node_count());
}

INSTANTIATE_TEST_SUITE_P(Sweep, LdelSweep, ::testing::ValuesIn(test::standard_sweep()));

TEST(Ldel, TriangleHelpers) {
    // Two triangles sharing an edge do not "intersect".
    GeometricGraph g({{0, 0}, {1, 0}, {0.5, 1}, {0.5, -1}, {3, 0}, {4, 0}, {3.5, 1}});
    const TriangleKey t1 = make_triangle_key(0, 1, 2);
    const TriangleKey t2 = make_triangle_key(0, 1, 3);
    EXPECT_FALSE(triangles_intersect(g, t1, t2));
    // Disjoint far-away triangles do not intersect.
    const TriangleKey t3 = make_triangle_key(4, 5, 6);
    EXPECT_FALSE(triangles_intersect(g, t1, t3));
}

TEST(Ldel, TriangleIntersectionCases) {
    GeometricGraph g({{0, 0},     // 0
                      {4, 0},     // 1
                      {2, 3},     // 2: big triangle 0-1-2
                      {2, 1},     // 3: strictly inside 0-1-2
                      {2, 0.5},   // 4: also inside
                      {2.2, 1.2}, // 5
                      {6, 0},     // 6
                      {5, 2},     // 7
                      {7, 2}});   // 8
    const TriangleKey big = make_triangle_key(0, 1, 2);
    const TriangleKey inner = make_triangle_key(3, 4, 5);
    EXPECT_TRUE(triangles_intersect(g, big, inner));  // Containment case.
    EXPECT_TRUE(triangles_intersect(g, inner, big));
    const TriangleKey right = make_triangle_key(6, 7, 8);
    EXPECT_FALSE(triangles_intersect(g, big, right));
}

TEST(Ldel, LocalTrianglesRequireUnitEdges) {
    // Three nodes pairwise within range of a hub but the far pair beyond
    // range: the triangle (hub, a, b) with |ab| > radius is not local.
    const GeometricGraph udg = build_udg({{0, 0}, {0.9, 0.3}, {-0.9, 0.3}}, 1.0);
    EXPECT_TRUE(udg.has_edge(0, 1));
    EXPECT_TRUE(udg.has_edge(0, 2));
    EXPECT_FALSE(udg.has_edge(1, 2));
    EXPECT_TRUE(local_triangles_at(udg, 0).empty());
    EXPECT_TRUE(ldel1_triangles(udg).empty());
}

TEST(Ldel, SingleTriangleNetwork) {
    const GeometricGraph udg = build_udg({{0, 0}, {1, 0}, {0.5, 0.8}}, 1.1);
    const auto tris = ldel1_triangles(udg);
    ASSERT_EQ(tris.size(), 1u);
    EXPECT_EQ(tris[0], make_triangle_key(0, 1, 2));
    const auto kept = planarize_triangles(udg, tris);
    EXPECT_EQ(kept, tris);
}

/// Algorithm 3 by definition, over all O(m^2) pairs of the sorted set:
/// of each intersecting pair, a triangle whose circumcircle strictly
/// contains a vertex of the other goes; when neither test fires
/// (exactly cocircular crossings) the larger key goes. `ties` counts
/// the pairs decided by that tie-break.
std::vector<TriangleKey> planarize_brute_force(const GeometricGraph& g,
                                               const std::vector<TriangleKey>& tris,
                                               std::size_t* ties) {
    std::vector<char> removed(tris.size(), 0);
    *ties = 0;
    for (std::size_t i = 0; i < tris.size(); ++i) {
        for (std::size_t j = i + 1; j < tris.size(); ++j) {
            if (!triangles_intersect(g, tris[i], tris[j])) continue;
            const bool remove_i = circumcircle_contains_vertex_of(g, tris[i], tris[j]);
            const bool remove_j = circumcircle_contains_vertex_of(g, tris[j], tris[i]);
            if (remove_i) removed[i] = 1;
            if (remove_j || !remove_i) removed[j] = 1;
            if (!remove_i && !remove_j) ++*ties;
        }
    }
    std::vector<TriangleKey> kept;
    for (std::size_t i = 0; i < tris.size(); ++i) {
        if (!removed[i]) kept.push_back(tris[i]);
    }
    return kept;
}

TEST(Ldel, PlanarizeKernelRemovesOverlapsAtEveryLaneCount) {
    // LDel triangle sets of random instances seldom intersect, so this
    // feeds the kernel dense synthetic sets instead: random triangles with
    // sides <= 1 in a 3x3 box (many crossing pairs), plus exact half-unit
    // squares whose overlapping triangles are cocircular and reach the
    // larger-key tie-break.
    rnd::Xoshiro256 rng(7);
    std::vector<geom::Point> points;
    for (int i = 0; i < 70; ++i) points.push_back({rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)});
    std::vector<TriangleKey> tris;
    while (tris.size() < 300) {
        const auto x = static_cast<graph::NodeId>(rng.below(points.size()));
        const auto y = static_cast<graph::NodeId>(rng.below(points.size()));
        const auto z = static_cast<graph::NodeId>(rng.below(points.size()));
        if (x == y || y == z || x == z) continue;
        if (geom::distance(points[x], points[y]) > 1.0 ||
            geom::distance(points[y], points[z]) > 1.0 ||
            geom::distance(points[x], points[z]) > 1.0 ||
            geom::orient_sign(points[x], points[y], points[z]) == 0) {
            continue;
        }
        tris.push_back(make_triangle_key(x, y, z));
    }
    for (const double corner : {4.0, 5.5, 7.0}) {
        const auto base = static_cast<graph::NodeId>(points.size());
        for (const auto& [dx, dy] : {std::pair{0.0, 0.0}, {0.5, 0.0}, {0.5, 0.5}, {0.0, 0.5}}) {
            points.push_back({corner + dx, corner + dy});
        }
        // Triangles 012 and 013 (and 012 and 123) cross along the
        // diagonals; each circumcircle passes through the fourth corner.
        tris.push_back(make_triangle_key(base, base + 1, base + 2));
        tris.push_back(make_triangle_key(base, base + 1, base + 3));
        tris.push_back(make_triangle_key(base + 1, base + 2, base + 3));
    }
    std::sort(tris.begin(), tris.end());
    tris.erase(std::unique(tris.begin(), tris.end()), tris.end());
    const GeometricGraph g(points);

    std::size_t ties = 0;
    const std::vector<TriangleKey> expected = planarize_brute_force(g, tris, &ties);
    ASSERT_LT(expected.size(), tris.size()) << "no triangle was removed";
    ASSERT_GT(ties, 0u) << "no pair reached the tie-break";

    EXPECT_EQ(planarize_triangles(g, tris), expected);
    for (const std::size_t lanes : {1u, 2u, 8u}) {
        engine::ThreadPool pool(lanes);
        EXPECT_EQ(planarize_triangles(g, tris, &pool), expected) << "lanes=" << lanes;
    }
}

}  // namespace
}  // namespace geospanner::proximity
