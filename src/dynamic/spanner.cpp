#include "dynamic/spanner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <iterator>
#include <set>
#include <stdexcept>

#include "engine/thread_pool.h"
#include "protocol/clustering.h"
#include "proximity/cell_grid.h"
#include "proximity/classic.h"

namespace geospanner::dynamic {

using core::push_stage;
using core::StageClock;
using graph::GeometricGraph;
using protocol::Role;

namespace {

/// Minimum dirty-item count before a kernel is worth the pool; smaller
/// patches run inline (results are identical either way — kernels write
/// owner slices that join in owner order).
constexpr std::size_t kParallelThreshold = 64;

/// A batch whose dirty region or cascade role flips exceed this share
/// of n is rebuilt instead of patched: measured at n=3500 and n=20k on
/// 4 lanes, a patch beat the engine rebuild at every share below ≈0.8
/// and lost above it.
constexpr double kRebuildShare = 0.8;

bool sorted_insert(std::vector<graph::NodeId>& list, graph::NodeId value) {
    const auto it = std::lower_bound(list.begin(), list.end(), value);
    if (it != list.end() && *it == value) return false;
    list.insert(it, value);
    return true;
}

template <typename T>
void sort_unique(std::vector<T>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

std::pair<graph::NodeId, graph::NodeId> norm(graph::NodeId a, graph::NodeId b) {
    return {std::min(a, b), std::max(a, b)};
}

/// Sets edge e of `g` to `want`; true when that changed the graph.
bool set_edge(GeometricGraph& g, std::pair<graph::NodeId, graph::NodeId> e, bool want) {
    return want ? g.add_edge(e.first, e.second) : g.remove_edge(e.first, e.second);
}

}  // namespace

std::string validate_batch(const UpdateBatch& batch, std::size_t n, double radius) {
    for (const auto& mv : batch.moves) {
        if (mv.node >= n) {
            return "move targets nonexistent node " + std::to_string(mv.node);
        }
        if (!proximity::in_grid_range(mv.to, radius)) {
            return "non-finite or out-of-range move coordinate for node " +
                   std::to_string(mv.node);
        }
    }
    for (const geom::Point p : batch.joins) {
        if (!proximity::in_grid_range(p, radius)) {
            return "non-finite or out-of-range join coordinate";
        }
    }
    std::size_t count = n + batch.joins.size();
    for (const graph::NodeId leaver : batch.leaves) {
        if (leaver >= count) {
            return "leave targets nonexistent node " + std::to_string(leaver);
        }
        --count;
    }
    return {};
}

void DynamicSpanner::PatchContext::reset(std::size_t n) {
    *this = PatchContext{};
    moved_flag.assign(n, 0);
    adj_changed_flag.assign(n, 0);
    icds_adj_changed_flag.assign(n, 0);
    dirty_union.assign(n, 0);
}

void DynamicSpanner::PatchContext::touch(NodeId v) {
    if (dirty_union[v] != 0) return;
    dirty_union[v] = 1;
    ++dirty_count;
}

// ---- Construction ----------------------------------------------------

DynamicSpanner::DynamicSpanner(engine::SpannerEngine& engine,
                               std::vector<geom::Point> points, double radius,
                               core::PipelineStats* stats)
    : engine_(&engine), radius_(radius), points_(std::move(points)) {
    assert(radius_ > 0.0);
    rebuild_from_scratch(stats);
}

void DynamicSpanner::append_node(geom::Point p) {
    const auto v = static_cast<NodeId>(points_.size());
    points_.push_back(p);
    grid_.insert(v, p);
    udg_.add_node(p);
    backbone_.cds.add_node(p);
    backbone_.cds_prime.add_node(p);
    backbone_.icds.add_node(p);
    backbone_.icds_prime.add_node(p);
    backbone_.ldel_icds.add_node(p);
    backbone_.ldel_icds_prime.add_node(p);
    backbone_.cluster.role.push_back(Role::kDominatee);
    backbone_.cluster.dominators_of.append_list();
    backbone_.cluster.two_hop_dominators_of.append_list();
    backbone_.is_connector.push_back(false);
    backbone_.in_backbone.push_back(false);
    elected_.append();
    local_.append();
    ldel1_.append();
}

void DynamicSpanner::apply_positions_only(const UpdateBatch& batch) {
    for (const auto& mv : batch.moves) points_[mv.node] = mv.to;
    for (const geom::Point p : batch.joins) points_.push_back(p);
    for (const NodeId leaver : batch.leaves) {
        points_[leaver] = points_.back();
        points_.pop_back();
    }
}

void DynamicSpanner::rebuild_from_scratch(core::PipelineStats* stats) {
    engine::ThreadPool& pool = engine_->pool();
    const engine::EngineOptions& opts = engine_->options();
    udg_ = engine::build_udg_staged(pool, points_, radius_, stats);
    engine::BuildIntermediates seeds;
    backbone_ = engine::build_backbone_staged(pool, udg_, opts, stats, nullptr, &seeds);

    // Seed the patch state from the kernels' own per-owner outputs.
    const auto start = StageClock::now();
    const std::size_t n = points_.size();
    grid_ = DynamicCellGrid(points_, radius_);
    elected_ = OwnerSlices<Pair>(seeds.connectors.offsets, std::move(seeds.connectors.links));
    if (opts.planarizer == core::Planarizer::kLdel1) {
        local_ = OwnerSlices<TriangleKey>(seeds.local.offsets, std::move(seeds.local.keys));
        // The LDel¹ set is sorted, so grouping it by least corner is a
        // count and a prefix sum.
        std::vector<std::size_t> offsets(n + 1, 0);
        for (const TriangleKey& t : seeds.ldel1) ++offsets[t.a + 1];
        for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
        ldel1_ = OwnerSlices<TriangleKey>(offsets, std::move(seeds.ldel1));
    } else {
        // kLdel2 never patches: every batch rebuilds.
        local_ = OwnerSlices<TriangleKey>(n);
        ldel1_ = OwnerSlices<TriangleKey>(n);
    }
    push_stage(stats, "seed", start, n, 1);
}

// ---- apply -----------------------------------------------------------

PatchStats DynamicSpanner::apply(const UpdateBatch& batch) {
    if (const std::string invalid = validate_batch(batch, points_.size(), radius_);
        !invalid.empty()) {
        throw std::invalid_argument("DynamicSpanner::apply: " + invalid);
    }
    PatchStats stats;
    const auto fall_back = [&] {
        rebuild_from_scratch(&stats.pipeline);
        stats.fell_back = true;
        stats.dirty_nodes = points_.size();
        return stats;
    };
    if (engine_->options().planarizer != core::Planarizer::kLdel1 ||
        !batch.leaves.empty()) {
        apply_positions_only(batch);
        return fall_back();
    }

    const std::size_t n_after = points_.size() + batch.joins.size();
    PatchContext ctx;
    ctx.reset(n_after);

    auto start = StageClock::now();
    stage_udg(batch, ctx);
    stats.udg_edge_changes = ctx.udg_added.size() + ctx.udg_removed.size();
    push_stage(&stats.pipeline, "udg-patch", start, stats.udg_edge_changes, 1);

    // The region gate. The full rebuild depends only on the current
    // positions, so bailing out after earlier stages mutated state is
    // safe. The dirty region holds every moved and joined node, so a
    // batch with more of them than the cap skips the cascade.
    const auto cap =
        static_cast<std::size_t>(kRebuildShare * static_cast<double>(n_after));
    const auto over_cap = [&] {
        stats.over_cap = true;
        return fall_back();
    };
    if (ctx.moved.size() + ctx.joined.size() > cap) return over_cap();
    start = StageClock::now();
    const bool cascade_ok = run_cluster_cascade(ctx, cap);
    push_stage(&stats.pipeline, "cluster-patch", start, ctx.roles_changed.size(), 1);
    if (!cascade_ok) return over_cap();

    start = StageClock::now();
    const std::vector<NodeId> region = dirty_region(ctx);
    if (region.size() > cap) return over_cap();
    stage_connectors(ctx, region);
    push_stage(&stats.pipeline, "connectors-patch", start, ctx.owners_reelected,
               pool_for(ctx.owners_reelected) != nullptr ? engine_->thread_count() : 1);

    start = StageClock::now();
    stage_icds(ctx);
    push_stage(&stats.pipeline, "icds-patch", start,
               ctx.icds_added.size() + ctx.icds_removed.size(), 1);

    start = StageClock::now();
    stage_ldel(ctx, stats);
    push_stage(&stats.pipeline, "ldel-patch", start, ctx.ldel_dirty.size(),
               pool_for(ctx.ldel_dirty.size()) != nullptr ? engine_->thread_count() : 1);

    start = StageClock::now();
    stage_ldel_edges(ctx);
    push_stage(&stats.pipeline, "gabriel-patch", start, ctx.ldel_changed.size(), 1);

    start = StageClock::now();
    stage_assemble(ctx);
    push_stage(&stats.pipeline, "assemble-patch", start, ctx.dom_list_changed.size(), 1);

    stats.dirty_nodes = ctx.dirty_count;
    stats.roles_changed = ctx.roles_changed.size();
    stats.owners_reelected = ctx.owners_reelected;
    return stats;
}

// ---- Stage U: positions, grid, UDG edge deltas -----------------------

void DynamicSpanner::stage_udg(const UpdateBatch& batch, PatchContext& ctx) {
    for (const geom::Point p : batch.joins) {
        const auto id = static_cast<NodeId>(points_.size());
        append_node(p);
        ctx.joined.push_back(id);
        ctx.touch(id);
    }
    for (const auto& mv : batch.moves) {
        const geom::Point old = points_[mv.node];
        if (old == mv.to) continue;
        grid_.relocate(mv.node, old, mv.to);
        points_[mv.node] = mv.to;
        if (ctx.moved_flag[mv.node] == 0) {
            ctx.moved_flag[mv.node] = 1;
            ctx.moved.push_back(mv.node);
            ctx.moved_from.emplace_back(mv.node, old);
            ctx.touch(mv.node);
        }
    }
    sort_unique(ctx.moved);
    std::ranges::sort(ctx.moved_from, {}, &std::pair<NodeId, geom::Point>::first);
    for (const NodeId v : ctx.moved) {
        udg_.set_point(v, points_[v]);
        backbone_.cds.set_point(v, points_[v]);
        backbone_.cds_prime.set_point(v, points_[v]);
        backbone_.icds.set_point(v, points_[v]);
        backbone_.icds_prime.set_point(v, points_[v]);
        backbone_.ldel_icds.set_point(v, points_[v]);
        backbone_.ldel_icds_prime.set_point(v, points_[v]);
    }

    // Re-derive the incident edge set of every moved/joined node from
    // the grid. Desired sets are functions of the final positions, so
    // processing order between two affected nodes cannot disagree;
    // add/remove return-values dedupe the doubly-enumerated case.
    std::vector<NodeId> affected = ctx.moved;
    affected.insert(affected.end(), ctx.joined.begin(), ctx.joined.end());
    sort_unique(affected);
    const auto mark_adj = [&](NodeId v) {
        if (ctx.adj_changed_flag[v] == 0) {
            ctx.adj_changed_flag[v] = 1;
            ctx.adj_changed.push_back(v);
            ctx.touch(v);
        }
    };
    // Grid queries are pure reads of the settled grid + positions, so
    // the desired lists collect in parallel; the edge splice below
    // mutates shared adjacency and stays serial in node order.
    std::vector<std::vector<NodeId>> desired(affected.size());
    const auto collect = [&](std::size_t i) {
        grid_.collect_neighbors(points_, radius_, affected[i], desired[i]);
    };
    if (affected.size() >= kParallelThreshold) {
        engine_->pool().parallel_for(0, affected.size(), collect);
    } else {
        for (std::size_t i = 0; i < affected.size(); ++i) collect(i);
    }
    std::vector<NodeId> stale;
    for (std::size_t ai = 0; ai < affected.size(); ++ai) {
        const NodeId v = affected[ai];
        stale.assign(udg_.neighbors(v).begin(), udg_.neighbors(v).end());
        // stale and desired are both sorted: one merge pass yields the
        // adds (desired only) and removals (stale only).
        const std::vector<NodeId>& want = desired[ai];
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < stale.size() || j < want.size()) {
            if (j == want.size() || (i < stale.size() && stale[i] < want[j])) {
                const NodeId u = stale[i++];
                if (udg_.remove_edge(v, u)) {
                    ctx.udg_removed.push_back(norm(v, u));
                    ctx.udg_removed_adj[v].push_back(u);
                    ctx.udg_removed_adj[u].push_back(v);
                    mark_adj(v);
                    mark_adj(u);
                }
            } else if (i == stale.size() || want[j] < stale[i]) {
                const NodeId u = want[j++];
                if (udg_.add_edge(v, u)) {
                    ctx.udg_added.push_back(norm(v, u));
                    mark_adj(v);
                    mark_adj(u);
                }
            } else {
                ++i;
                ++j;
            }
        }
    }
    sort_unique(ctx.adj_changed);
    sort_unique(ctx.udg_added);
    sort_unique(ctx.udg_removed);
    for (auto& [v, list] : ctx.udg_removed_adj) sort_unique(list);
}

// ---- Stage 1: clustering cascade + derived lists ---------------------

bool DynamicSpanner::run_cluster_cascade(PatchContext& ctx, std::size_t cap) {
    const auto policy = engine_->options().cluster_policy;
    auto& cluster = backbone_.cluster;

    // Seeds: every node whose role-function inputs changed — its own
    // neighbor set (adj_changed, joins), and under kHighestDegree the
    // keys of its neighbors (degree changes propagate one hop).
    // Keys are static for the whole cascade (degrees are final once
    // stage_udg finished), so the worklist order is globally consistent.
    const auto key = [&](NodeId v) { return protocol::key_of(udg_, v, policy); };
    std::set<protocol::ElectionKey> worklist;
    const auto seed = [&](NodeId v) { worklist.insert(key(v)); };
    for (const NodeId v : ctx.adj_changed) seed(v);
    for (const NodeId v : ctx.joined) seed(v);
    if (policy == protocol::ClusterPolicy::kHighestDegree) {
        for (const NodeId v : ctx.adj_changed) {
            for (const NodeId u : udg_.neighbors(v)) seed(u);
        }
    }

    // Greedy MIS in key order (== cluster_reference's synchronized
    // rounds): v is a dominator iff no key-smaller neighbor is one.
    // Pops increase monotonically and a role change only re-enqueues
    // key-larger neighbors, so every processed node sees the final
    // roles of all key-smaller nodes — the defining property of the
    // greedy order, which makes the localized cascade exact.
    while (!worklist.empty()) {
        const protocol::ElectionKey mine = *worklist.begin();
        worklist.erase(worklist.begin());
        const NodeId v = mine.id;
        bool dominated = false;
        for (const NodeId u : udg_.neighbors(v)) {
            if (cluster.role[u] == Role::kDominator && key(u) < mine) {
                dominated = true;
                break;
            }
        }
        const Role role = dominated ? Role::kDominatee : Role::kDominator;
        if (role == cluster.role[v]) continue;
        ctx.old_role.emplace(v, cluster.role[v]);
        cluster.role[v] = role;
        ctx.roles_changed.push_back(v);
        if (ctx.roles_changed.size() > cap) return false;
        for (const NodeId u : udg_.neighbors(v)) {
            if (key(u) > mine) worklist.insert(key(u));
        }
    }
    sort_unique(ctx.roles_changed);
    for (const NodeId v : ctx.roles_changed) ctx.touch(v);

    // dominators_of[v] depends on v's role, v's neighbor set, and the
    // roles of its neighbors.
    std::vector<NodeId> dom_recompute = ctx.roles_changed;
    for (const NodeId v : ctx.roles_changed) {
        for (const NodeId u : udg_.neighbors(v)) dom_recompute.push_back(u);
    }
    dom_recompute.insert(dom_recompute.end(), ctx.adj_changed.begin(),
                         ctx.adj_changed.end());
    dom_recompute.insert(dom_recompute.end(), ctx.joined.begin(), ctx.joined.end());
    sort_unique(dom_recompute);
    std::vector<NodeId> fresh;
    for (const NodeId v : dom_recompute) {
        fresh.clear();
        if (cluster.role[v] == Role::kDominatee) {
            for (const NodeId u : udg_.neighbors(v)) {
                if (cluster.role[u] == Role::kDominator) fresh.push_back(u);
            }
        }
        const auto current = cluster.dominators_of[v];
        if (!std::ranges::equal(fresh, current)) {
            ctx.old_dominators.emplace(
                v, std::vector<NodeId>(current.begin(), current.end()));
            cluster.dominators_of.assign(v, fresh);
            ctx.dom_list_changed.push_back(v);
            ctx.touch(v);
        }
    }

    // two_hop_dominators_of[v] depends on v's neighbor set and, for
    // each neighbor w, on role[w] and dominators_of[w].
    std::vector<NodeId> two_hop_recompute = ctx.adj_changed;
    two_hop_recompute.insert(two_hop_recompute.end(), ctx.joined.begin(),
                             ctx.joined.end());
    for (const NodeId w : ctx.roles_changed) {
        for (const NodeId v : udg_.neighbors(w)) two_hop_recompute.push_back(v);
    }
    for (const NodeId w : ctx.dom_list_changed) {
        for (const NodeId v : udg_.neighbors(w)) two_hop_recompute.push_back(v);
    }
    sort_unique(two_hop_recompute);
    for (const NodeId v : two_hop_recompute) {
        fresh.clear();
        for (const NodeId w : udg_.neighbors(v)) {
            if (cluster.role[w] != Role::kDominatee) continue;
            for (const NodeId d : cluster.dominators_of[w]) {
                if (d != v && !udg_.has_edge(v, d)) sorted_insert(fresh, d);
            }
        }
        if (!std::ranges::equal(fresh, cluster.two_hop_dominators_of[v])) {
            cluster.two_hop_dominators_of.assign(v, fresh);
            ctx.two_hop_changed.push_back(v);
            ctx.touch(v);
        }
    }
    return true;
}

// ---- Dirty region ----------------------------------------------------

std::vector<graph::NodeId> DynamicSpanner::dirty_region(const PatchContext& ctx) const {
    // Seeds: nodes whose election-relevant state changed (adjacency, role,
    // dominator list, two-hop dominator list, or a fresh join). Every
    // pair whose election can differ has a dominator within the 2-hop
    // closure of them over old ∪ new edges, because elections are pure
    // functions of the states of N2(pair). Moved nodes join the seeds: a
    // move that changed no UDG edge still dirties the LDel/Gabriel
    // stages, so it counts against the gate; re-electing with the
    // superset only reruns elections whose inputs are unchanged.
    std::vector<NodeId> seeds = ctx.adj_changed;
    for (const auto* part : {&ctx.joined, &ctx.roles_changed, &ctx.dom_list_changed,
                             &ctx.two_hop_changed, &ctx.moved}) {
        seeds.insert(seeds.end(), part->begin(), part->end());
    }
    sort_unique(seeds);
    return expand_hops(udg_, ctx.udg_removed_adj, seeds, 2);
}

// ---- Stage 2: connector elections -------------------------------------

void DynamicSpanner::stage_connectors(PatchContext& ctx,
                                      const std::vector<NodeId>& region) {
    const auto& cluster = backbone_.cluster;

    // A dominator's elections read its 2-hop ball only (candidates are
    // its neighbours, second legs their neighbours), so a slice can
    // change only when an election input changed within 2 hops of its
    // owner: the dirty owners are the dominators, old or new, of the
    // dirty region.
    std::vector<NodeId> owners;
    for (const NodeId d : region) {
        ctx.touch(d);
        const auto it = ctx.old_role.find(d);
        const bool was = it != ctx.old_role.end() && it->second == Role::kDominator;
        if (cluster.is_dominator(d) || was) owners.push_back(d);
    }
    ctx.owners_reelected = owners.size();
    const protocol::ConnectorSlices fresh =
        protocol::elect_connectors_at(udg_, cluster, owners, pool_for(owners.size()));

    // Commit in owner order. A link a slice gained is in the CDS; a link
    // it lost stays while another slice still holds it.
    std::vector<Pair> dropped;
    for (std::size_t k = 0; k < owners.size(); ++k) {
        const std::span<const Pair> now(fresh.links.data() + fresh.offsets[k],
                                        fresh.offsets[k + 1] - fresh.offsets[k]);
        const auto old = elected_[owners[k]];
        if (std::ranges::equal(now, old)) continue;
        std::vector<Pair> gained;
        std::ranges::set_difference(now, old, std::back_inserter(gained));
        std::ranges::set_difference(old, now, std::back_inserter(dropped));
        elected_.assign(owners[k], now);
        for (const Pair& e : gained) {
            if (backbone_.cds.add_edge(e.first, e.second)) ctx.cds_changed.push_back(e);
        }
    }
    sort_unique(dropped);
    for (const Pair& e : dropped) {
        if (!cds_link_elected(e) && backbone_.cds.remove_edge(e.first, e.second)) {
            ctx.cds_changed.push_back(e);
        }
    }
    sort_unique(ctx.cds_changed);

    // A connector is a dominatee endpoint of an elected link.
    std::vector<NodeId> settle = ctx.roles_changed;
    for (const auto& [a, b] : ctx.cds_changed) {
        settle.push_back(a);
        settle.push_back(b);
    }
    sort_unique(settle);
    for (const NodeId c : settle) {
        const bool now = !cluster.is_dominator(c) && backbone_.cds.degree(c) > 0;
        if (backbone_.is_connector[c] != now) {
            backbone_.is_connector[c] = now;
            ctx.connector_changed.push_back(c);
            ctx.touch(c);
        }
    }
}

bool DynamicSpanner::cds_link_elected(Pair e) const {
    // Every link of a slice has an endpoint within 2 hops of its owner,
    // so the owners that can hold e lie within 2 hops of an endpoint.
    const auto held_by = [&](NodeId x) {
        return backbone_.cluster.is_dominator(x) && elected_.contains(x, e);
    };
    for (const NodeId end : {e.first, e.second}) {
        if (held_by(end)) return true;
        for (const NodeId w : udg_.neighbors(end)) {
            if (held_by(w)) return true;
            for (const NodeId x : udg_.neighbors(w)) {
                if (held_by(x)) return true;
            }
        }
    }
    return false;
}

// ---- Stage 3: induced backbone (ICDS) --------------------------------

void DynamicSpanner::stage_icds(PatchContext& ctx) {
    auto& in_backbone = backbone_.in_backbone;
    auto& icds = backbone_.icds;
    const auto record = [&](std::vector<Pair>& delta, NodeId u, NodeId v) {
        delta.push_back(norm(u, v));
        for (const NodeId x : {u, v}) {
            if (ctx.icds_adj_changed_flag[x] == 0) {
                ctx.icds_adj_changed_flag[x] = 1;
                ctx.icds_adj_changed.push_back(x);
            }
        }
    };

    std::vector<NodeId> flips = ctx.roles_changed;
    flips.insert(flips.end(), ctx.connector_changed.begin(),
                 ctx.connector_changed.end());
    flips.insert(flips.end(), ctx.joined.begin(), ctx.joined.end());
    sort_unique(flips);
    for (const NodeId v : flips) {
        const bool now =
            backbone_.cluster.role[v] == Role::kDominator || backbone_.is_connector[v];
        if (in_backbone[v] != now) {
            in_backbone[v] = now;
            ctx.backbone_changed.push_back(v);
            ctx.touch(v);
        }
    }

    // UDG edge deltas restricted to backbone endpoints, then membership
    // flips: a node entering the backbone gains its UDG edges to other
    // backbone nodes, a node leaving drops every incident ICDS edge.
    for (const auto& [u, v] : ctx.udg_added) {
        if (in_backbone[u] && in_backbone[v] && icds.add_edge(u, v)) {
            record(ctx.icds_added, u, v);
        }
    }
    for (const auto& [u, v] : ctx.udg_removed) {
        if (icds.remove_edge(u, v)) record(ctx.icds_removed, u, v);
    }
    std::vector<NodeId> incident;
    for (const NodeId v : ctx.backbone_changed) {
        if (in_backbone[v]) {
            for (const NodeId u : udg_.neighbors(v)) {
                if (in_backbone[u] && icds.add_edge(v, u)) record(ctx.icds_added, v, u);
            }
        } else {
            incident.assign(icds.neighbors(v).begin(), icds.neighbors(v).end());
            for (const NodeId u : incident) {
                if (icds.remove_edge(v, u)) record(ctx.icds_removed, v, u);
            }
        }
    }
    sort_unique(ctx.icds_adj_changed);
    sort_unique(ctx.icds_added);
    sort_unique(ctx.icds_removed);
}

// ---- Stage 4: LDel¹ triangles + Algorithm 3 survival -----------------

DynamicSpanner::Box DynamicSpanner::box_of(geom::Point a, geom::Point b, geom::Point c) {
    return {std::min({a.x, b.x, c.x}), std::max({a.x, b.x, c.x}),
            std::min({a.y, b.y, c.y}), std::max({a.y, b.y, c.y})};
}

template <typename Fn>
void DynamicSpanner::for_each_ldel1_meeting(const Box& box, Fn&& fn) const {
    // LDel¹ sides are ICDS edges, at most one radius long, so a triangle
    // whose box meets `box` has its least corner within one radius of
    // `box`; the grid cells (side = radius) over that margin hold every
    // such owner.
    const auto lo = proximity::cell_of({box.min_x - radius_, box.min_y - radius_}, radius_);
    const auto hi = proximity::cell_of({box.max_x + radius_, box.max_y + radius_}, radius_);
    const CellBuckets& cells = grid_.cells();
    for (long long cx = lo.first; cx <= hi.first; ++cx) {
        for (long long cy = lo.second; cy <= hi.second; ++cy) {
            const auto it = cells.find({cx, cy});
            if (it == cells.end()) continue;
            for (const NodeId v : it->second) {
                for (const TriangleKey r : ldel1_[v]) {
                    const Box rb = box_of(points_[r.a], points_[r.b], points_[r.c]);
                    if (rb.min_x > box.max_x || rb.max_x < box.min_x ||
                        rb.min_y > box.max_y || rb.max_y < box.min_y) {
                        continue;
                    }
                    fn(r);
                }
            }
        }
    }
}

void DynamicSpanner::stage_ldel(PatchContext& ctx, PatchStats& stats) {
    const GeometricGraph& icds = backbone_.icds;
    // Local triangle lists to recompute: local_triangles_at(icds, v)
    // reads v's ICDS neighbor set, the positions of v and those
    // neighbors, and the ICDS edges among the neighbors (the opposite
    // sides). So v is dirty exactly when (a) its adjacency changed, (b)
    // v or a current neighbor moved, or (c) an edge between two of its
    // current neighbors was added or removed — i.e. v is a common
    // neighbor of an edge delta. A node that lost its adjacency to the
    // changed/moved node is in icds_adj_changed already, which is why
    // (b) and (c) only need current adjacency.
    std::vector<NodeId> seeds = ctx.icds_adj_changed;
    for (const NodeId v : ctx.moved) {
        if (!backbone_.in_backbone[v]) continue;
        seeds.push_back(v);
        const auto nbrs = icds.neighbors(v);
        seeds.insert(seeds.end(), nbrs.begin(), nbrs.end());
    }
    const auto mark_common = [&](Pair e) {
        const auto na = icds.neighbors(e.first);
        const auto nb = icds.neighbors(e.second);
        std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                              std::back_inserter(seeds));
    };
    for (const Pair& e : ctx.icds_added) mark_common(e);
    for (const Pair& e : ctx.icds_removed) mark_common(e);
    sort_unique(seeds);
    ctx.ldel_dirty = std::move(seeds);
    const auto& dirty = ctx.ldel_dirty;
    for (const NodeId v : dirty) ctx.touch(v);

    // ldel1_triangles' first pass over the dirty nodes. Candidates: every
    // triangle of an old or fresh list of a dirty node — a triangle with
    // no dirty corner keeps all three of its votes.
    const proximity::LocalTriangles fresh =
        proximity::local_triangles(icds, dirty, pool_for(dirty.size()));
    std::vector<TriangleKey> candidates = fresh.keys;
    for (std::size_t k = 0; k < dirty.size(); ++k) {
        const auto old = local_[dirty[k]];
        candidates.insert(candidates.end(), old.begin(), old.end());
        local_.assign(dirty[k], std::span<const TriangleKey>(
                                    fresh.keys.data() + fresh.offsets[k],
                                    fresh.offsets[k + 1] - fresh.offsets[k]));
    }
    sort_unique(candidates);

    // LDel¹ membership (all three corners list the triangle) against the
    // owner slices, collecting the old and new boxes of every triangle
    // that joined, left or moved.
    const auto old_point = [&](NodeId v) {
        if (ctx.moved_flag[v] == 0) return points_[v];
        return std::ranges::lower_bound(ctx.moved_from, v, {},
                                        &std::pair<NodeId, geom::Point>::first)
            ->second;
    };
    const auto new_box = [&](TriangleKey t) {
        return box_of(points_[t.a], points_[t.b], points_[t.c]);
    };
    std::vector<TriangleKey> added;
    std::vector<TriangleKey> removed;
    std::vector<Box> touched;
    for (const TriangleKey t : candidates) {
        const bool now =
            local_.contains(t.a, t) && local_.contains(t.b, t) && local_.contains(t.c, t);
        const bool was = ldel1_.contains(t.a, t);
        const bool moved = ctx.moved_flag[t.a] != 0 || ctx.moved_flag[t.b] != 0 ||
                           ctx.moved_flag[t.c] != 0;
        if (was && (!now || moved)) {
            touched.push_back(box_of(old_point(t.a), old_point(t.b), old_point(t.c)));
        }
        if (now && (!was || moved)) touched.push_back(new_box(t));
        if (now && !was) added.push_back(t);
        if (was && !now) removed.push_back(t);
    }
    // Both deltas are sorted, hence grouped by least corner.
    std::vector<NodeId> owners;
    for (const TriangleKey& t : added) owners.push_back(t.a);
    for (const TriangleKey& t : removed) owners.push_back(t.a);
    sort_unique(owners);
    std::vector<TriangleKey> kept_part;
    std::vector<TriangleKey> slice;
    auto add_it = added.begin();
    auto rem_it = removed.begin();
    for (const NodeId a : owners) {
        const auto add_end = std::find_if(add_it, added.end(),
                                          [&](const TriangleKey& t) { return t.a != a; });
        const auto rem_end = std::find_if(rem_it, removed.end(),
                                          [&](const TriangleKey& t) { return t.a != a; });
        const auto current = ldel1_[a];
        kept_part.clear();
        std::set_difference(current.begin(), current.end(), rem_it, rem_end,
                            std::back_inserter(kept_part));
        slice.clear();
        std::merge(kept_part.begin(), kept_part.end(), add_it, add_end,
                   std::back_inserter(slice));
        ldel1_.assign(a, slice);
        add_it = add_end;
        rem_it = rem_end;
    }

    // Algorithm 3's verdict on a pair changes only when one of its
    // triangles changed, and only triangles whose boxes meet can
    // intersect: re-decide every LDel¹ triangle whose box meets an old
    // or new box of a changed triangle (the added and moved ones among
    // them).
    std::vector<TriangleKey> retest;
    for (const Box& box : touched) {
        for_each_ldel1_meeting(box, [&](TriangleKey r) { retest.push_back(r); });
    }
    sort_unique(retest);
    stats.triangles_retested += retest.size();

    // Each intersecting pair with a retested member is tested once, by
    // proximity::alg3_pair: by the smaller key when both are retested,
    // else by the retested one. Marks only go from 0 to 1.
    std::vector<char> loses(retest.size(), 0);
    const auto mark = [&](std::size_t k) {
        std::atomic_ref<char>(loses[k]).store(1, std::memory_order_relaxed);
    };
    engine::parallel_for(pool_for(retest.size()), 0, retest.size(), [&](std::size_t i) {
        const TriangleKey t = retest[i];
        for_each_ldel1_meeting(new_box(t), [&](TriangleKey r) {
            const auto it = std::lower_bound(retest.begin(), retest.end(), r);
            const bool retested = it != retest.end() && *it == r;
            if (r == t || (retested && r < t)) return;
            if (t < r) {
                const proximity::Alg3Verdict v = proximity::alg3_pair(icds, t, r);
                if (v.remove_smaller) mark(i);
                if (v.remove_larger && retested) {
                    mark(static_cast<std::size_t>(it - retest.begin()));
                }
            } else if (proximity::alg3_pair(icds, r, t).remove_larger) {
                mark(i);
            }
        });
    });

    // Survivor deltas, merged into the sorted triangle list.
    auto& kept = backbone_.ldel_triangles;
    const auto is_kept = [&](TriangleKey t) {
        return std::binary_search(kept.begin(), kept.end(), t);
    };
    for (std::size_t i = 0; i < retest.size(); ++i) {
        const bool keep = loses[i] == 0;
        if (keep != is_kept(retest[i])) {
            (keep ? ctx.kept_added : ctx.kept_removed).push_back(retest[i]);
        }
    }
    for (const TriangleKey t : removed) {
        if (is_kept(t)) ctx.kept_removed.push_back(t);
    }
    std::sort(ctx.kept_removed.begin(), ctx.kept_removed.end());
    if (!ctx.kept_added.empty() || !ctx.kept_removed.empty()) {
        std::vector<TriangleKey> surviving;
        surviving.reserve(kept.size());
        std::set_difference(kept.begin(), kept.end(), ctx.kept_removed.begin(),
                            ctx.kept_removed.end(), std::back_inserter(surviving));
        std::vector<TriangleKey> merged;
        merged.reserve(surviving.size() + ctx.kept_added.size());
        std::merge(surviving.begin(), surviving.end(), ctx.kept_added.begin(),
                   ctx.kept_added.end(), std::back_inserter(merged));
        kept = std::move(merged);
    }
}

// ---- Stage 4b: LDel(ICDS) edges ----------------------------------------

void DynamicSpanner::stage_ldel_edges(PatchContext& ctx) {
    const GeometricGraph& icds = backbone_.icds;
    GeometricGraph& ldel = backbone_.ldel_icds;
    for (const Pair& e : ctx.icds_removed) {
        if (ldel.remove_edge(e.first, e.second)) ctx.ldel_changed.push_back(e);
    }
    // proximity::ldel_graph's rule per edge: an ICDS edge is in
    // LDel(ICDS) iff it is a kept-triangle side or passes the Gabriel
    // test. Its inputs change only at an LDel-dirty endpoint (positions
    // and common neighbors decide the Gabriel test) or for the sides of
    // a triangle that joined or left the kept set.
    std::vector<Pair> edges;
    for (const NodeId u : ctx.ldel_dirty) {
        for (const NodeId v : icds.neighbors(u)) edges.push_back(norm(u, v));
    }
    for (const auto* delta : {&ctx.kept_added, &ctx.kept_removed}) {
        for (const TriangleKey& t : *delta) {
            for (const Pair& e : {Pair{t.a, t.b}, Pair{t.a, t.c}, Pair{t.b, t.c}}) {
                if (icds.has_edge(e.first, e.second)) edges.push_back(e);
            }
        }
    }
    sort_unique(edges);
    std::vector<char> member(edges.size(), 0);
    engine::parallel_for(pool_for(edges.size()), 0, edges.size(), [&](std::size_t i) {
        const auto [u, v] = edges[i];
        member[i] = kept_side(edges[i]) || proximity::is_gabriel_edge(icds, u, v) ? 1 : 0;
    });
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (set_edge(ldel, edges[i], member[i] != 0)) ctx.ldel_changed.push_back(edges[i]);
    }
    sort_unique(ctx.ldel_changed);
}

bool DynamicSpanner::kept_side(Pair e) const {
    // The third corner of a triangle on side e is a common ICDS neighbor.
    const auto& kept = backbone_.ldel_triangles;
    const auto na = backbone_.icds.neighbors(e.first);
    const auto nb = backbone_.icds.neighbors(e.second);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < na.size() && j < nb.size()) {
        if (na[i] < nb[j]) {
            ++i;
        } else if (nb[j] < na[i]) {
            ++j;
        } else {
            const TriangleKey t = proximity::make_triangle_key(e.first, e.second, na[i]);
            if (std::binary_search(kept.begin(), kept.end(), t)) return true;
            ++i;
            ++j;
        }
    }
    return false;
}

// ---- Stage 5: primed graphs ------------------------------------------

void DynamicSpanner::stage_assemble(PatchContext& ctx) {
    // A node's dominatee links are its dominators_of list, so only the
    // dom_list_changed nodes (old lists captured during the cascade)
    // change links.
    std::vector<Pair> links;
    for (const NodeId v : ctx.dom_list_changed) {
        const auto& old_list = ctx.old_dominators.at(v);
        const auto new_list = backbone_.cluster.dominators_of[v];
        std::vector<NodeId> diff;
        std::ranges::set_symmetric_difference(old_list, new_list, std::back_inserter(diff));
        for (const NodeId d : diff) links.push_back(norm(v, d));
    }
    // core::assemble_graphs' rule per edge: a primed graph holds its base
    // graph's edges and every dominatee link.
    const auto settle = [&](GeometricGraph& primed, const GeometricGraph& base,
                            std::initializer_list<const std::vector<Pair>*> changed) {
        for (const auto* list : changed) {
            for (const Pair& e : *list) {
                set_edge(primed, e, base.has_edge(e.first, e.second) || is_dominatee_link(e));
            }
        }
    };
    settle(backbone_.cds_prime, backbone_.cds, {&ctx.cds_changed, &links});
    settle(backbone_.icds_prime, backbone_.icds,
           {&ctx.icds_added, &ctx.icds_removed, &links});
    settle(backbone_.ldel_icds_prime, backbone_.ldel_icds, {&ctx.ldel_changed, &links});
}

bool DynamicSpanner::is_dominatee_link(Pair e) const {
    const auto& doms = backbone_.cluster.dominators_of;
    return doms.contains(e.first, e.second) || doms.contains(e.second, e.first);
}

engine::ThreadPool* DynamicSpanner::pool_for(std::size_t items) const {
    return items >= kParallelThreshold ? &engine_->pool() : nullptr;
}

// ---- k-hop expansion over old ∪ new adjacency ------------------------

std::vector<graph::NodeId> DynamicSpanner::expand_hops(
    const GeometricGraph& g,
    const std::unordered_map<NodeId, std::vector<NodeId>>& removed_adj,
    const std::vector<NodeId>& seeds, int hops) const {
    std::vector<char> visited(g.node_count(), 0);
    std::vector<NodeId> frontier;
    std::vector<NodeId> result;
    for (const NodeId v : seeds) {
        if (visited[v] == 0) {
            visited[v] = 1;
            frontier.push_back(v);
            result.push_back(v);
        }
    }
    std::vector<NodeId> next;
    for (int h = 0; h < hops && !frontier.empty(); ++h) {
        next.clear();
        const auto visit = [&](NodeId u) {
            if (visited[u] == 0) {
                visited[u] = 1;
                next.push_back(u);
                result.push_back(u);
            }
        };
        for (const NodeId v : frontier) {
            for (const NodeId u : g.neighbors(v)) visit(u);
            const auto it = removed_adj.find(v);
            if (it != removed_adj.end()) {
                for (const NodeId u : it->second) visit(u);
            }
        }
        std::swap(frontier, next);
    }
    std::sort(result.begin(), result.end());
    return result;
}

}  // namespace geospanner::dynamic
