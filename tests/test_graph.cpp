// GeometricGraph and NodeLists container semantics, and UnionFind.
#include "graph/geometric_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/node_lists.h"
#include "graph/union_find.h"
#include "random/rng.h"

namespace geospanner::graph {
namespace {

GeometricGraph square_graph() {
    GeometricGraph g({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 0);
    return g;
}

TEST(GeometricGraph, BasicAccounting) {
    const GeometricGraph g = square_graph();
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_DOUBLE_EQ(g.edge_length(0, 1), 1.0);
}

TEST(GeometricGraph, AddIsIdempotent) {
    GeometricGraph g = square_graph();
    EXPECT_FALSE(g.add_edge(0, 1));
    EXPECT_FALSE(g.add_edge(1, 0));
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_TRUE(g.add_edge(0, 2));
    EXPECT_EQ(g.edge_count(), 5u);
}

TEST(GeometricGraph, RemoveEdge) {
    GeometricGraph g = square_graph();
    EXPECT_TRUE(g.remove_edge(1, 0));
    EXPECT_FALSE(g.remove_edge(0, 1));
    EXPECT_EQ(g.edge_count(), 3u);
    EXPECT_FALSE(g.has_edge(0, 1));
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(GeometricGraph, NeighborsSorted) {
    GeometricGraph g({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
    g.add_edge(2, 3);
    g.add_edge(2, 0);
    g.add_edge(2, 1);
    const auto nbrs = g.neighbors(2);
    ASSERT_EQ(nbrs.size(), 3u);
    EXPECT_EQ(nbrs[0], 0u);
    EXPECT_EQ(nbrs[1], 1u);
    EXPECT_EQ(nbrs[2], 3u);
}

TEST(GeometricGraph, EdgesCanonicalOrder) {
    const GeometricGraph g = square_graph();
    const auto e = g.edges();
    ASSERT_EQ(e.size(), 4u);
    EXPECT_EQ(e[0], (std::pair<NodeId, NodeId>{0, 1}));
    EXPECT_EQ(e[1], (std::pair<NodeId, NodeId>{0, 3}));
    EXPECT_EQ(e[2], (std::pair<NodeId, NodeId>{1, 2}));
    EXPECT_EQ(e[3], (std::pair<NodeId, NodeId>{2, 3}));
}

TEST(GeometricGraph, Equality) {
    const GeometricGraph a = square_graph();
    GeometricGraph b = square_graph();
    EXPECT_EQ(a, b);
    b.remove_edge(0, 1);
    EXPECT_FALSE(a == b);
    b.add_edge(0, 1);
    EXPECT_EQ(a, b);
}

// ---- Seeded model tests against a std::set reference ------------------
//
// Random mutation sequences alternate insert-heavy and erase-heavy phases
// so lists grow past their capacity (moves to the slab's end), shrink
// (dead regions outnumber live entries) and grow again (compaction).

using ModelLists = std::vector<std::set<NodeId>>;

void expect_matches(const NodeLists& lists, const ModelLists& model) {
    ASSERT_EQ(lists.size(), model.size());
    for (NodeId v = 0; v < model.size(); ++v) {
        const auto got = lists[v];
        ASSERT_TRUE(std::ranges::equal(got, model[v])) << "list " << v;
    }
}

void expect_matches(const GeometricGraph& g, const ModelLists& model,
                    const std::vector<geom::Point>& points) {
    ASSERT_EQ(g.points(), points);
    expect_matches(g.adjacency(), model);
    std::size_t edges = 0;
    for (const auto& list : model) edges += list.size();
    ASSERT_EQ(g.edge_count(), edges / 2);
}

/// Phase-dependent insert probability: 0.75 then 0.2, 1500 steps each.
bool insert_phase(std::size_t step) { return (step / 1500) % 2 == 0; }

/// A held copy and the reference it must keep matching.
struct HeldGraph {
    GeometricGraph graph;
    ModelLists model;
    std::vector<geom::Point> points;
};

TEST(GeometricGraphModel, RandomMutationsMatchSetReference) {
    rnd::Xoshiro256 rng(20021);
    std::vector<geom::Point> points;
    for (int i = 0; i < 40; ++i) points.push_back({rng.uniform01(), rng.uniform01()});
    GeometricGraph g(points);
    ModelLists model(points.size());
    std::vector<HeldGraph> held;
    std::size_t compactions = 0;
    std::size_t last_slab = 0;

    for (std::size_t step = 0; step < 12000; ++step) {
        const double p_insert = insert_phase(step) ? 0.75 : 0.2;
        const double roll = rng.uniform01();
        const auto n = static_cast<NodeId>(points.size());
        if (roll < 0.02 && n < 120) {
            const geom::Point p{rng.uniform01(), rng.uniform01()};
            ASSERT_EQ(g.add_node(p), n);
            points.push_back(p);
            model.emplace_back();
        } else if (roll < 0.04) {
            const auto v = static_cast<NodeId>(rng.below(n));
            points[v] = {rng.uniform01(), rng.uniform01()};
            g.set_point(v, points[v]);
        } else if (roll < 0.05) {
            held.push_back({g, model, points});
            if (held.size() > 4) held.erase(held.begin());
        } else {
            const auto u = static_cast<NodeId>(rng.below(n));
            auto v = static_cast<NodeId>(rng.below(n - 1));
            if (v >= u) ++v;
            if (rng.uniform01() < p_insert) {
                const bool fresh = model[u].insert(v).second;
                model[v].insert(u);
                ASSERT_EQ(g.add_edge(u, v), fresh);
            } else {
                const bool present = model[u].erase(v) > 0;
                model[v].erase(u);
                ASSERT_EQ(g.remove_edge(u, v), present);
            }
            ASSERT_EQ(g.has_edge(v, u), model[u].contains(v));
        }
        if (g.adjacency().slab_size() < last_slab) ++compactions;
        last_slab = g.adjacency().slab_size();
        ASSERT_NO_FATAL_FAILURE(expect_matches(g, model, points));
        // Copies are independent of the original in both directions:
        // the original's mutations above never reach a held copy, and
        // mutating a copy never reaches the original.
        if (step % 97 == 0 && !held.empty()) {
            HeldGraph& copy = held[step % held.size()];
            ASSERT_NO_FATAL_FAILURE(expect_matches(copy.graph, copy.model, copy.points));
            const auto cn = static_cast<NodeId>(copy.points.size());
            const auto a = static_cast<NodeId>(rng.below(cn));
            const auto b = static_cast<NodeId>((a + 1 + rng.below(cn - 1)) % cn);
            if (copy.model[a].contains(b)) {
                copy.graph.remove_edge(a, b);
                copy.model[a].erase(b);
                copy.model[b].erase(a);
            } else {
                copy.graph.add_edge(a, b);
                copy.model[a].insert(b);
                copy.model[b].insert(a);
            }
            ASSERT_NO_FATAL_FAILURE(expect_matches(copy.graph, copy.model, copy.points));
            ASSERT_NO_FATAL_FAILURE(expect_matches(g, model, points));
        }
    }
    EXPECT_GT(compactions, 0u) << "the sequence never crossed the compaction threshold";
    for (const HeldGraph& copy : held) {
        EXPECT_NO_FATAL_FAILURE(expect_matches(copy.graph, copy.model, copy.points));
    }
}

TEST(GeometricGraphModel, FromEdgesThenMutate) {
    rnd::Xoshiro256 rng(77);
    std::vector<geom::Point> points(30);
    ModelLists model(points.size());
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < points.size(); ++u) {
        for (NodeId v = u + 1; v < points.size(); ++v) {
            if (rng.uniform01() < 0.3) {
                edges.emplace_back(u, v);
                model[u].insert(v);
                model[v].insert(u);
            }
        }
    }
    GeometricGraph g = GeometricGraph::from_edges(points, edges);
    ASSERT_NO_FATAL_FAILURE(expect_matches(g, model, points));
    ASSERT_EQ(g.edges(), edges);
    // The bulk layout is exact-capacity: the first insert into any list
    // moves it, and every later mutation keeps matching the reference.
    for (int step = 0; step < 3000; ++step) {
        const auto u = static_cast<NodeId>(rng.below(points.size()));
        auto v = static_cast<NodeId>(rng.below(points.size() - 1));
        if (v >= u) ++v;
        const bool inserting = insert_phase(static_cast<std::size_t>(step) * 3);
        if (rng.uniform01() < (inserting ? 0.7 : 0.3)) {
            ASSERT_EQ(g.add_edge(u, v), model[u].insert(v).second);
            model[v].insert(u);
        } else {
            ASSERT_EQ(g.remove_edge(u, v), model[u].erase(v) > 0);
            model[v].erase(u);
        }
        ASSERT_NO_FATAL_FAILURE(expect_matches(g, model, points));
    }
}

TEST(GeometricGraphModel, EqualityIsLogicalNotLayout) {
    const std::vector<geom::Point> points(12);
    const std::vector<std::pair<NodeId, NodeId>> edges{
        {0, 1}, {0, 5}, {1, 2}, {2, 3}, {3, 11}, {4, 7}, {6, 7}, {8, 9}};
    const GeometricGraph bulk = GeometricGraph::from_edges(points, edges);

    // Same edge set reached through churn: extra edges added (forcing
    // list moves) and removed again, inserts in reverse order.
    GeometricGraph churned(points);
    for (NodeId u = 0; u < 12; ++u) {
        for (NodeId v = u + 1; v < 12; ++v) churned.add_edge(v, u);
    }
    for (NodeId u = 0; u < 12; ++u) {
        for (NodeId v = u + 1; v < 12; ++v) {
            if (!bulk.has_edge(u, v)) churned.remove_edge(u, v);
        }
    }
    EXPECT_NE(churned.adjacency().slab_size(), bulk.adjacency().slab_size());
    EXPECT_EQ(churned, bulk);

    // Union of a bulk graph with unordered extra links holding repeats
    // and edges of the graph, grouped into symmetric per-node lists.
    const std::vector<std::pair<NodeId, NodeId>> first{{0, 1}, {2, 3}, {4, 7}, {8, 9}};
    std::vector<std::pair<NodeId, NodeId>> extra;
    for (const auto& [u, v] :
         {std::pair<NodeId, NodeId>{6, 7}, {3, 11}, {0, 5}, {2, 3}, {1, 2}, {6, 7}, {0, 1}}) {
        extra.emplace_back(u, v);
        extra.emplace_back(v, u);
    }
    const GeometricGraph united = GeometricGraph::from_edges(points, first)
                                      .united_with(NodeLists::group_pairs(12, extra));
    EXPECT_EQ(united, bulk);
    EXPECT_EQ(united.edge_count(), edges.size());
    EXPECT_EQ(churned.adjacency(), bulk.adjacency());
    EXPECT_EQ(churned.edges(), bulk.edges());

    churned.remove_edge(8, 9);
    EXPECT_NE(churned, bulk);
    EXPECT_NE(churned.adjacency(), bulk.adjacency());
}

TEST(NodeListsModel, ClusterListsMatchSetReference) {
    rnd::Xoshiro256 rng(4242);
    NodeLists lists(25);
    ModelLists model(25);
    std::vector<std::pair<NodeLists, ModelLists>> held;
    std::size_t compactions = 0;
    std::size_t last_slab = 0;
    std::vector<NodeId> fresh;

    for (std::size_t step = 0; step < 12000; ++step) {
        const double roll = rng.uniform01();
        const auto n = static_cast<NodeId>(model.size());
        const auto v = static_cast<NodeId>(rng.below(n));
        const auto value = static_cast<NodeId>(rng.below(60));
        if (roll < 0.01 && n < 80) {
            ASSERT_EQ(lists.append_list(), n);
            model.emplace_back();
        } else if (roll < 0.05) {
            // Whole-list replacement, as the incremental patcher does
            // when a node's dominator set changes.
            fresh.clear();
            for (NodeId d = 0; d < 60; ++d) {
                if (rng.uniform01() < 0.05) fresh.push_back(d);
            }
            lists.assign(v, fresh);
            model[v] = std::set<NodeId>(fresh.begin(), fresh.end());
        } else if (roll < 0.06) {
            held.emplace_back(lists, model);
            if (held.size() > 4) held.erase(held.begin());
        } else if (rng.uniform01() < (insert_phase(step) ? 0.75 : 0.2)) {
            ASSERT_EQ(lists.insert(v, value), model[v].insert(value).second);
        } else {
            ASSERT_EQ(lists.erase(v, value), model[v].erase(value) > 0);
        }
        ASSERT_EQ(lists.contains(v, value), model[v].contains(value));
        if (lists.slab_size() < last_slab) ++compactions;
        last_slab = lists.slab_size();
        ASSERT_NO_FATAL_FAILURE(expect_matches(lists, model));
        if (step % 89 == 0 && !held.empty()) {
            auto& [copy, copy_model] = held[step % held.size()];
            ASSERT_NO_FATAL_FAILURE(expect_matches(copy, copy_model));
            const auto w = static_cast<NodeId>(rng.below(copy_model.size()));
            ASSERT_EQ(copy.insert(w, 61), copy_model[w].insert(61).second);
            ASSERT_NO_FATAL_FAILURE(expect_matches(copy, copy_model));
            ASSERT_NO_FATAL_FAILURE(expect_matches(lists, model));
        }
    }
    EXPECT_GT(compactions, 0u) << "the sequence never crossed the compaction threshold";

    // Logical equality: the same lists through a different history.
    std::vector<std::size_t> offsets{0};
    std::vector<NodeId> entries;
    for (const auto& list : model) {
        entries.insert(entries.end(), list.begin(), list.end());
        offsets.push_back(entries.size());
    }
    const NodeLists bulk = NodeLists::from_csr(offsets, entries);
    EXPECT_EQ(bulk, lists);
    EXPECT_LE(bulk.slab_size(), lists.slab_size());
}

TEST(UnionFind, MergesAndCounts) {
    UnionFind uf(6);
    EXPECT_EQ(uf.component_count(), 6u);
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_TRUE(uf.unite(2, 3));
    EXPECT_FALSE(uf.unite(1, 0));
    EXPECT_EQ(uf.component_count(), 4u);
    EXPECT_TRUE(uf.same(0, 1));
    EXPECT_FALSE(uf.same(0, 2));
    EXPECT_TRUE(uf.unite(1, 3));
    EXPECT_TRUE(uf.same(0, 2));
    EXPECT_EQ(uf.component_size(3), 4u);
    EXPECT_EQ(uf.component_size(5), 1u);
}

TEST(UnionFind, FullMerge) {
    UnionFind uf(100);
    for (std::size_t i = 1; i < 100; ++i) uf.unite(i - 1, i);
    EXPECT_EQ(uf.component_count(), 1u);
    EXPECT_TRUE(uf.same(0, 99));
    EXPECT_EQ(uf.component_size(42), 100u);
}

}  // namespace
}  // namespace geospanner::graph
