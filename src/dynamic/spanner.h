// Incremental spanner maintenance for dynamic topologies.
//
// The paper's construction is local at every stage: a node's cluster
// role depends on its 1-hop neighborhood, a connector election on the
// 2-hop ball of its dominator pair, and an LDel¹ triangle on the 1-hop
// balls of its three corners. DynamicSpanner exploits that locality to
// repair a finished backbone after point updates (move/join/leave
// batches) by recomputing only the *dirty region* — the k-hop closure,
// over the union of old and new adjacency, of the nodes whose inputs
// changed — and splicing the recomputed sub-results into the retained
// GeometricGraphs.
//
// Correctness contract: after any update sequence the patched topology
// is edge-for-edge identical to a from-scratch build on the same
// positions (proximity::build_udg + core::build_backbone with
// Engine::kCentralized, or equivalently the staged engine). The
// per-stage dirty-set expansion rules that guarantee this are derived
// in docs/ARCHITECTURE.md; tests/test_dynamic.cpp fuzzes the equality
// across trace replays and runs the verify:: auditors on patched
// outputs.
//
// Patch state: the per-owner outputs of the engine's stage kernels,
// kept in flat per-owner slabs (dynamic/owner_slices.h) — each
// dominator's elected CDS links (protocol::elect_connectors), each
// node's local Delaunay triangles over ICDS and each node's LDel¹
// triangles keyed by their least corner (proximity::ldel1_triangles).
// A patch re-runs a kernel's owner body over the dirty owners only and
// diffs the fresh slices against the kept ones; every edge it touches is
// then re-decided by the rule that defines it (a CDS link is in the CDS
// iff some dominator's slice holds it; an ICDS edge is in LDel(ICDS) iff
// it is a kept-triangle side or passes proximity::is_gabriel_edge; a
// primed graph holds its base graph plus the dominatee links).
//
// Concurrency: a batch has one dirty region. The owner bodies of every
// stage run over its dirty owners on the engine ThreadPool against the
// frozen pre-commit state, and their slices are committed serially in
// owner order, so output is bit-identical at any thread count.
//
// Fallback policy: a batch takes the full rebuild from its final
// positions when it carries leaves (swap-remove id compaction perturbs
// the id-keyed elections globally), under Planarizer::kLdel2 (the full
// rebuild yields LDel²(ICDS)), or when its dirty region is too large
// for a patch to pay: the cluster cascade flips more than 0.8·n roles,
// or the 2-hop closure over old ∪ new adjacency of the connector seeds
// holds more than 0.8·n nodes. That closure is the connector stage's own
// owner region, so the gate costs no extra expansion; a batch that moves
// or joins more than 0.8·n nodes is over it before the cascade runs. At
// n=3500 and n=20k on 4 lanes a patch beat the engine rebuild at every
// measured share below ≈0.8 and lost above it. The full rebuild is the
// engine's own build (engine::build_udg_staged + build_backbone_staged
// on the engine pool, under the configured planarizer) followed by
// seeding the patch state from that build's per-owner intermediates;
// the incremental path re-runs the same kernels' owner bodies, so each
// paper rule has one implementation.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/backbone.h"
#include "core/report.h"
#include "dynamic/dynamic_cell_grid.h"
#include "dynamic/owner_slices.h"
#include "engine/engine.h"
#include "graph/geometric_graph.h"
#include "proximity/ldel.h"

namespace geospanner::dynamic {

/// One batch of point updates, applied in this order: moves (to current
/// ids), then joins (appended as new largest ids, returned implicitly
/// as node_count() .. node_count()+joins-1), then leaves (each applied
/// sequentially with swap-remove: the last node takes the leaver's id).
struct UpdateBatch {
    struct Move {
        graph::NodeId node;
        geom::Point to;
    };
    std::vector<Move> moves;
    std::vector<geom::Point> joins;
    std::vector<graph::NodeId> leaves;

    [[nodiscard]] bool empty() const {
        return moves.empty() && joins.empty() && leaves.empty();
    }
};

/// Why apply() cannot take `batch` on a spanner of `n` nodes at
/// `radius`, or "" when it can: a move or leave that names a nonexistent
/// node (leaves apply sequentially with swap-remove, so each is checked
/// against the count it sees), or a coordinate the cell grid cannot
/// bucket (proximity::in_grid_range).
[[nodiscard]] std::string validate_batch(const UpdateBatch& batch, std::size_t n,
                                         double radius);

/// What one apply() did: the repair path taken, the per-stage dirty
/// volumes, and the stage timing breakdown (same PipelineStats type the
/// engine emits for full builds).
struct PatchStats {
    bool fell_back = false;            ///< batch took the full-rebuild path
    /// The fallback was the region gate's: the dirty region or the
    /// cascade's role flips exceeded 0.8·n. False when leaves or kLdel2
    /// forced the rebuild.
    bool over_cap = false;
    std::size_t dirty_nodes = 0;       ///< union of all per-stage dirty sets
    std::size_t udg_edge_changes = 0;  ///< UDG edges added + removed
    std::size_t roles_changed = 0;     ///< cluster roles flipped by the cascade
    std::size_t owners_reelected = 0;  ///< dominators whose connector elections reran
    std::size_t triangles_retested = 0;  ///< Algorithm-3 survivals re-evaluated
    core::PipelineStats pipeline;
};

/// A maintained (UDG, Backbone) pair under point updates. The engine
/// reference supplies the ThreadPool for the kernels and the options
/// (cluster policy, planarizer).
/// Incremental patching supports the paper's default kLdel1 planarizer;
/// kLdel2 configurations take the full-rebuild path on every batch.
class DynamicSpanner {
  public:
    /// Builds the backbone through the engine and seeds the patch state;
    /// `stats`, when given, receives the engine's stage rows plus a
    /// "seed" row for the patch state. Throws std::invalid_argument on
    /// hostile coordinates (engine::build_udg_staged).
    DynamicSpanner(engine::SpannerEngine& engine, std::vector<geom::Point> points,
                   double radius, core::PipelineStats* stats = nullptr);

    /// Applies one update batch and repairs the backbone. Returns the
    /// patch report; stats.pipeline carries one StageStats per patch
    /// kernel (or the engine's stage names on the fallback path). Throws
    /// std::invalid_argument, before any state changes, on a batch that
    /// validate_batch refuses.
    PatchStats apply(const UpdateBatch& batch);

    [[nodiscard]] const graph::GeometricGraph& udg() const noexcept { return udg_; }
    [[nodiscard]] const core::Backbone& backbone() const noexcept { return backbone_; }
    [[nodiscard]] const std::vector<geom::Point>& positions() const noexcept {
        return points_;
    }
    [[nodiscard]] std::size_t node_count() const noexcept { return points_.size(); }
    [[nodiscard]] double radius() const noexcept { return radius_; }
    [[nodiscard]] engine::SpannerEngine& engine() noexcept { return *engine_; }

  private:
    using NodeId = graph::NodeId;
    using Pair = std::pair<NodeId, NodeId>;
    using TriangleKey = proximity::TriangleKey;

    /// Scratch + dirty sets of one incremental apply().
    struct PatchContext {
        std::vector<NodeId> moved;        ///< sorted; nodes whose position changed
        std::vector<char> moved_flag;     ///< n-sized
        /// (node, position before the batch) of every moved node, sorted.
        std::vector<std::pair<NodeId, geom::Point>> moved_from;
        std::vector<NodeId> joined;       ///< sorted new ids
        std::vector<NodeId> adj_changed;  ///< sorted; endpoints of UDG edge deltas
        std::vector<char> adj_changed_flag;
        std::vector<Pair> udg_added;
        std::vector<Pair> udg_removed;
        /// Removed-neighbor lists: adjacency of the *old* graph that the
        /// new one lost, for k-hop expansion over old ∪ new edges.
        std::unordered_map<NodeId, std::vector<NodeId>> udg_removed_adj;

        std::vector<NodeId> roles_changed;  ///< sorted after the cascade
        std::unordered_map<NodeId, protocol::Role> old_role;
        /// Nodes whose dominators_of list changed, with the old list.
        std::vector<NodeId> dom_list_changed;
        std::unordered_map<NodeId, std::vector<NodeId>> old_dominators;
        std::vector<NodeId> two_hop_changed;

        std::size_t owners_reelected = 0;
        std::vector<Pair> cds_changed;          ///< CDS edges added or removed
        std::vector<NodeId> connector_changed;  ///< is_connector flips

        std::vector<NodeId> backbone_changed;  ///< in_backbone flips
        std::vector<Pair> icds_added;
        std::vector<Pair> icds_removed;
        std::vector<char> icds_adj_changed_flag;
        std::vector<NodeId> icds_adj_changed;

        std::vector<NodeId> ldel_dirty;  ///< sorted; local triangle lists recomputed
        std::vector<TriangleKey> kept_added;    ///< Algorithm 3 survivors gained
        std::vector<TriangleKey> kept_removed;  ///< Algorithm 3 survivors lost
        std::vector<Pair> ldel_changed;         ///< LDel(ICDS) edges added or removed
        std::vector<char> dirty_union;  ///< union of all per-stage dirty nodes
        std::size_t dirty_count = 0;

        void reset(std::size_t n);
        void touch(NodeId v);  ///< adds v to the dirty union
    };

    /// Axis-aligned bounding box of a triangle.
    struct Box {
        double min_x, max_x, min_y, max_y;
    };

    // Stage kernels of the incremental path. Each reads the dirty inputs
    // from `ctx`, patches the retained state, and records what it
    // invalidated for the next stage.
    void stage_udg(const UpdateBatch& batch, PatchContext& ctx);
    /// Role cascade + derived-list recompute; false → more than `cap`
    /// roles flipped, caller falls back to a full rebuild.
    bool run_cluster_cascade(PatchContext& ctx, std::size_t cap);
    /// The batch's dirty region: the 2-hop closure over old ∪ new
    /// adjacency of every node whose election-relevant state changed
    /// (adjacency, role, dominator lists, a fresh join) or that moved.
    /// It holds every dominator whose connector elections can differ.
    /// Sorted.
    [[nodiscard]] std::vector<NodeId> dirty_region(const PatchContext& ctx) const;
    /// Re-elects the dominators in `region` and re-decides the CDS links
    /// and connector flags their slices touched.
    void stage_connectors(PatchContext& ctx, const std::vector<NodeId>& region);
    void stage_icds(PatchContext& ctx);
    /// Local triangles, the LDel¹ set and Algorithm 3 survival.
    void stage_ldel(PatchContext& ctx, PatchStats& stats);
    /// LDel(ICDS) membership of every edge whose inputs changed.
    void stage_ldel_edges(PatchContext& ctx);
    /// The primed graphs: base graph ∪ dominatee links.
    void stage_assemble(PatchContext& ctx);

    void append_node(geom::Point p);
    void rebuild_from_scratch(core::PipelineStats* stats);
    void apply_positions_only(const UpdateBatch& batch);

    /// The pool when `items` is worth splitting over lanes, else null
    /// (small patches run inline; results are identical either way).
    [[nodiscard]] engine::ThreadPool* pool_for(std::size_t items) const;
    /// True when some dominator's election slice holds CDS link `e`.
    [[nodiscard]] bool cds_link_elected(Pair e) const;
    /// True when ICDS edge `e` is a side of a kept triangle.
    [[nodiscard]] bool kept_side(Pair e) const;
    [[nodiscard]] bool is_dominatee_link(Pair e) const;
    [[nodiscard]] static Box box_of(geom::Point a, geom::Point b, geom::Point c);
    /// Calls fn(r) for every LDel¹ triangle r whose box meets `box`.
    template <typename Fn>
    void for_each_ldel1_meeting(const Box& box, Fn&& fn) const;

    [[nodiscard]] std::vector<NodeId> expand_hops(
        const graph::GeometricGraph& g,
        const std::unordered_map<NodeId, std::vector<NodeId>>& removed_adj,
        const std::vector<NodeId>& seeds, int hops) const;

    engine::SpannerEngine* engine_;
    double radius_ = 1.0;
    std::vector<geom::Point> points_;
    DynamicCellGrid grid_;
    graph::GeometricGraph udg_;
    core::Backbone backbone_;

    // Patch state, seeded from the build's per-owner intermediates.
    OwnerSlices<Pair> elected_;        ///< per dominator: its elected CDS links
    OwnerSlices<TriangleKey> local_;   ///< per node: local Delaunay triangles over ICDS
    OwnerSlices<TriangleKey> ldel1_;   ///< per node: LDel¹ triangles it is the least corner of
};

}  // namespace geospanner::dynamic
