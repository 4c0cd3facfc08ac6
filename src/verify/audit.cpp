#include "verify/audit.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "graph/metrics.h"
#include "graph/planarity.h"
#include "graph/shortest_paths.h"
#include "graph/union_find.h"

namespace geospanner::verify {

using graph::GeometricGraph;
using graph::NodeId;

namespace {

/// Recovers the transmission radius when the caller did not supply one:
/// the longest UDG edge is a lower bound tight enough for the packing
/// and far-pair arguments (both only loosen if the true radius is
/// larger).
double effective_radius(const GeometricGraph& udg, const AuditOptions& options) {
    if (options.radius > 0.0) return options.radius;
    double rmax = 0.0;
    for (const auto& [u, v] : udg.edges()) {
        rmax = std::max(rmax, udg.edge_length(u, v));
    }
    return rmax;
}

/// Appends w to report (capped) and marks the report failed.
void add_witness(AuditReport& report, const AuditOptions& options, Witness w) {
    report.pass = false;
    if (report.witnesses.size() < options.max_witnesses) {
        report.witnesses.push_back(std::move(w));
    }
}

Witness pair_witness(NodeId u, NodeId v, double measured, double bound,
                     std::string detail) {
    Witness w;
    w.nodes.push_back(u);
    w.nodes.push_back(v);
    w.measured = measured;
    w.bound = bound;
    w.detail = std::move(detail);
    return w;
}

/// Union-find component label (root id) of every node.
std::vector<std::size_t> component_roots(const GeometricGraph& g) {
    graph::UnionFind uf(g.node_count());
    for (const auto& [u, v] : g.edges()) uf.unite(u, v);
    std::vector<std::size_t> roots(g.node_count());
    for (std::size_t v = 0; v < g.node_count(); ++v) roots[v] = uf.find(v);
    return roots;
}

/// Checks that `topo` does not split any pair of `members` that the UDG
/// connects (members = nullptr means every node). Appends witnesses.
void check_component_refinement(AuditReport& report, const AuditOptions& options,
                                const std::vector<std::size_t>& udg_roots,
                                const GeometricGraph& topo,
                                const std::vector<bool>* members,
                                const std::string& topo_name) {
    const auto topo_roots = component_roots(topo);
    // Representative member per UDG component; every other member of the
    // same UDG component must share its topo component.
    std::vector<NodeId> rep(udg_roots.size(), graph::kInvalidNode);
    for (NodeId v = 0; v < topo.node_count(); ++v) {
        if (members != nullptr && !(*members)[v]) continue;
        NodeId& r = rep[udg_roots[v]];
        if (r == graph::kInvalidNode) {
            r = v;
            continue;
        }
        if (topo_roots[v] != topo_roots[r]) {
            add_witness(report, options,
                        pair_witness(r, v, 0.0, 0.0,
                                     topo_name + " disconnects nodes " +
                                         std::to_string(r) + " and " + std::to_string(v) +
                                         ", connected in the UDG"));
        }
    }
}

AuditReport make_report(std::string check, std::string lemma) {
    AuditReport report;
    report.check = std::move(check);
    report.lemma = std::move(lemma);
    return report;
}

void check_degree_cap(AuditReport& report, const AuditOptions& options,
                      const GeometricGraph& g, std::size_t cap,
                      const std::string& name) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
        if (g.degree(v) > cap) {
            Witness w;
            w.nodes.push_back(v);
            w.measured = static_cast<double>(g.degree(v));
            w.bound = static_cast<double>(cap);
            w.detail = name + " degree of node " + std::to_string(v) + " is " +
                       std::to_string(g.degree(v)) + " > " + std::to_string(cap);
            add_witness(report, options, std::move(w));
        }
    }
}

}  // namespace

std::string AuditReport::summary() const {
    std::ostringstream out;
    out << check << " [" << lemma << "]: ";
    if (pass) {
        out << "PASS";
    } else {
        out << "FAIL (" << witnesses.size() << " witness"
            << (witnesses.size() == 1 ? "" : "es") << ")";
        if (!witnesses.empty()) out << ": " << witnesses.front().detail;
    }
    return out.str();
}

AuditReport check_dominator_packing(const GeometricGraph& udg,
                                    const protocol::ClusterState& cluster,
                                    const AuditOptions& options) {
    AuditReport report = make_report("dominator_packing", "Lemma 1+2");
    const auto n = static_cast<NodeId>(udg.node_count());

    // Independence: no UDG edge joins two dominators.
    for (const auto& [u, v] : udg.edges()) {
        if (cluster.is_dominator(u) && cluster.is_dominator(v)) {
            Witness w;
            w.edges = {{u, v}};
            w.detail = "adjacent dominators " + std::to_string(u) + " and " +
                       std::to_string(v);
            add_witness(report, options, std::move(w));
        }
    }

    // Domination + Lemma 1: every dominatee lists 1..5 adjacent
    // dominators. Under a quasi-UDG (independence_alpha < 1) the
    // angular argument behind 5 is unavailable — non-adjacent
    // dominators are only α·radius apart — so the cap relaxes to the
    // area-packing bound: disjoint α/2-radius disks inside a
    // (1 + α/2)-radius disk give (2/α + 1)².
    const double alpha = std::clamp(options.independence_alpha, 1e-9, 1.0);
    const std::size_t dom_cap =
        alpha < 1.0 ? static_cast<std::size_t>((2.0 / alpha + 1.0) * (2.0 / alpha + 1.0))
                    : options.max_dominators;
    for (NodeId v = 0; v < n; ++v) {
        if (cluster.is_dominator(v)) continue;
        const auto doms = cluster.dominators(v);
        if (doms.empty() && udg.degree(v) > 0) {
            Witness w;
            w.nodes.push_back(v);
            w.detail = "dominatee " + std::to_string(v) + " has no dominator";
            add_witness(report, options, std::move(w));
            continue;
        }
        if (doms.size() > dom_cap) {
            Witness w;
            w.nodes.push_back(v);
            for (const NodeId d : doms) w.nodes.push_back(d);
            w.measured = static_cast<double>(doms.size());
            w.bound = static_cast<double>(dom_cap);
            w.detail = "dominatee " + std::to_string(v) + " has " +
                       std::to_string(doms.size()) + " dominators";
            add_witness(report, options, std::move(w));
        }
        for (const NodeId d : doms) {
            if (!cluster.is_dominator(d) || !udg.has_edge(v, d)) {
                Witness w;
                w.nodes.push_back(v);
                w.nodes.push_back(d);
                w.detail = "listed dominator " + std::to_string(d) + " of " +
                           std::to_string(v) +
                           (cluster.is_dominator(d) ? " is not adjacent"
                                                    : " is not a dominator");
                add_witness(report, options, std::move(w));
            }
        }
    }

    // Lemma 2: at most (2k/α+1)^2 dominators within k radii of any node
    // (α = 1 recovers the paper's (2k+1)^2 exactly).
    const double radius = effective_radius(udg, options);
    if (radius > 0.0) {
        std::vector<NodeId> dominators;
        for (NodeId d = 0; d < n; ++d) {
            if (cluster.is_dominator(d)) dominators.push_back(d);
        }
        for (NodeId v = 0; v < n; ++v) {
            for (const int k : {1, 2}) {
                const double b = 2.0 * static_cast<double>(k) / alpha + 1.0;
                const auto bound = static_cast<std::size_t>(b * b);
                std::size_t count = 0;
                for (const NodeId d : dominators) {
                    if (geom::distance(udg.point(v), udg.point(d)) <= k * radius) {
                        ++count;
                    }
                }
                if (count > bound) {
                    Witness w;
                    w.nodes.push_back(v);
                    w.measured = static_cast<double>(count);
                    w.bound = static_cast<double>(bound);
                    w.detail = std::to_string(count) + " dominators within " +
                               std::to_string(k) + " radii of node " +
                               std::to_string(v);
                    add_witness(report, options, std::move(w));
                }
            }
        }
    }
    return report;
}

AuditReport check_backbone_degree(const core::Backbone& backbone,
                                  const AuditOptions& options) {
    AuditReport report = make_report("backbone_degree", "Lemma 4");
    check_degree_cap(report, options, backbone.cds, options.max_cds_degree, "CDS");
    check_degree_cap(report, options, backbone.icds, options.max_icds_degree, "ICDS");
    check_degree_cap(report, options, backbone.ldel_icds, options.max_icds_degree,
                     "LDel(ICDS)");
    return report;
}

AuditReport check_message_bounds(const core::MessageStats& messages,
                                 const AuditOptions& options) {
    AuditReport report = make_report("message_bounds", "Lemma 3");
    const std::size_t n = messages.after_ldel.size();
    if (n == 0) return report;  // Centralized engine: nothing to certify.
    for (NodeId v = 0; v < n; ++v) {
        const std::size_t cds = messages.after_cds[v];
        const std::size_t icds = messages.after_icds[v];
        const std::size_t ldel = messages.after_ldel[v];
        if (icds != cds + 1 || ldel < icds) {
            Witness w;
            w.nodes.push_back(v);
            w.detail = "non-cumulative counts at node " + std::to_string(v) + ": cds=" +
                       std::to_string(cds) + " icds=" + std::to_string(icds) +
                       " ldel=" + std::to_string(ldel);
            add_witness(report, options, std::move(w));
        }
        if (ldel > options.max_messages_per_node) {
            Witness w;
            w.nodes.push_back(v);
            w.measured = static_cast<double>(ldel);
            w.bound = static_cast<double>(options.max_messages_per_node);
            w.detail = "node " + std::to_string(v) + " sent " + std::to_string(ldel) +
                       " messages";
            add_witness(report, options, std::move(w));
        }
    }
    return report;
}

AuditReport check_planarity_certificate(const GeometricGraph& g,
                                        const AuditOptions& options) {
    AuditReport report = make_report("planarity_certificate", "Lemma 7");
    const auto crossings = graph::crossing_edge_pairs(g, options.max_witnesses);
    for (const auto& [e1, e2] : crossings) {
        Witness w;
        w.edges = {e1, e2};
        w.detail = "edges (" + std::to_string(e1.first) + "," +
                   std::to_string(e1.second) + ") and (" + std::to_string(e2.first) +
                   "," + std::to_string(e2.second) + ") properly cross";
        add_witness(report, options, std::move(w));
    }
    return report;
}

AuditReport check_connectivity_preserved(const GeometricGraph& udg,
                                         const core::Backbone& backbone,
                                         const AuditOptions& options) {
    AuditReport report = make_report("connectivity_preserved", "Lemma 8");
    const auto udg_roots = component_roots(udg);
    check_component_refinement(report, options, udg_roots, backbone.cds,
                               &backbone.in_backbone, "CDS");
    check_component_refinement(report, options, udg_roots, backbone.icds,
                               &backbone.in_backbone, "ICDS");
    check_component_refinement(report, options, udg_roots, backbone.ldel_icds,
                               &backbone.in_backbone, "LDel(ICDS)");
    check_component_refinement(report, options, udg_roots, backbone.cds_prime, nullptr,
                               "CDS'");
    check_component_refinement(report, options, udg_roots, backbone.icds_prime, nullptr,
                               "ICDS'");
    check_component_refinement(report, options, udg_roots, backbone.ldel_icds_prime,
                               nullptr, "LDel(ICDS')");
    return report;
}

AuditReport check_stretch_bounds(const GeometricGraph& udg,
                                 const core::Backbone& backbone,
                                 const AuditOptions& options) {
    AuditReport report = make_report("stretch_bounds", "Lemma 5+6+8");
    const auto n = static_cast<NodeId>(udg.node_count());
    const double radius = effective_radius(udg, options);

    for (NodeId s = 0; s < n; ++s) {
        // Lemma 5: per-pair CDS' hop distance at most 3h + 2.
        const auto base_hops = graph::bfs_hops(udg, s);
        const auto topo_hops = graph::bfs_hops(backbone.cds_prime, s);
        for (NodeId t = s + 1; t < n; ++t) {
            if (base_hops[t] == graph::kUnreachableHops) continue;
            if (topo_hops[t] == graph::kUnreachableHops ||
                topo_hops[t] > 3 * base_hops[t] + options.max_hop_stretch_slack) {
                const double measured = topo_hops[t] == graph::kUnreachableHops
                                            ? std::numeric_limits<double>::infinity()
                                            : static_cast<double>(topo_hops[t]);
                add_witness(report, options,
                            pair_witness(s, t, measured,
                                         3.0 * base_hops[t] + options.max_hop_stretch_slack,
                                         "CDS' hop distance " + std::to_string(s) + "->" +
                                             std::to_string(t) + " exceeds 3h+2"));
            }
        }

        // Lemmas 6 and 8: length stretch of the spanning topologies for
        // pairs more than one radius apart.
        const auto base_len = graph::dijkstra_lengths(udg, s);
        const auto cds_len = graph::dijkstra_lengths(backbone.cds_prime, s);
        const auto ldel_len = graph::dijkstra_lengths(backbone.ldel_icds_prime, s);
        for (NodeId t = s + 1; t < n; ++t) {
            if (base_hops[t] == graph::kUnreachableHops) continue;
            if (geom::distance(udg.point(s), udg.point(t)) <= radius) continue;
            if (base_len[t] <= 0.0) continue;
            const double cap = options.max_length_stretch * base_len[t];
            if (cds_len[t] > cap) {
                add_witness(report, options,
                            pair_witness(s, t, cds_len[t] / base_len[t],
                                         options.max_length_stretch,
                                         "CDS' length stretch of pair " +
                                             std::to_string(s) + "," + std::to_string(t) +
                                             " exceeds the bound"));
            }
            if (ldel_len[t] > cap) {
                add_witness(report, options,
                            pair_witness(s, t, ldel_len[t] / base_len[t],
                                         options.max_length_stretch,
                                         "LDel(ICDS') length stretch of pair " +
                                             std::to_string(s) + "," + std::to_string(t) +
                                             " exceeds the bound"));
            }
        }
    }
    return report;
}

// ---- Stage-level audits ----------------------------------------------

bool StageAudit::pass() const {
    return std::all_of(reports.begin(), reports.end(),
                       [](const AuditReport& r) { return r.pass; });
}

bool AuditTrail::pass() const {
    return std::all_of(stages.begin(), stages.end(),
                       [](const StageAudit& s) { return s.pass(); });
}

const AuditReport* AuditTrail::first_failure() const {
    for (const auto& stage : stages) {
        for (const auto& report : stage.reports) {
            if (!report.pass) return &report;
        }
    }
    return nullptr;
}

std::string AuditTrail::summary() const {
    std::ostringstream out;
    for (const auto& stage : stages) {
        for (const auto& report : stage.reports) {
            out << stage.stage << ": " << report.summary() << '\n';
        }
    }
    return out.str();
}

StageAudit audit_clustering(const GeometricGraph& udg,
                            const protocol::ClusterState& cluster,
                            const AuditOptions& options) {
    return {"clustering", {check_dominator_packing(udg, cluster, options)}};
}

StageAudit audit_connectors(const GeometricGraph& udg,
                            const protocol::ClusterState& cluster,
                            const std::vector<std::pair<NodeId, NodeId>>& cds_edges,
                            const AuditOptions& options) {
    // Rebuild the CDS graphs the assemble stage will produce, so a bad
    // election fails here, with the elected edges as evidence.
    core::Backbone partial;
    partial.cluster = cluster;
    partial.cds = GeometricGraph(udg.points());
    for (const auto& [u, v] : cds_edges) partial.cds.add_edge(u, v);
    partial.cds_prime = partial.cds.united_with(core::dominatee_links(udg, cluster));
    // Stretch only needs the CDS graphs; satisfy the checker's Backbone
    // interface with LDel' := CDS' (same bound applies).
    partial.ldel_icds_prime = partial.cds_prime;
    return {"connectors", {check_stretch_bounds(udg, partial, options)}};
}

StageAudit audit_icds(const GeometricGraph& udg, const std::vector<bool>& in_backbone,
                      const GeometricGraph& icds, const AuditOptions& options) {
    AuditReport report = make_report("icds_induced", "ICDS definition");
    for (const auto& [u, v] : icds.edges()) {
        if (!udg.has_edge(u, v) || !in_backbone[u] || !in_backbone[v]) {
            Witness w;
            w.edges = {{u, v}};
            w.detail = "ICDS edge (" + std::to_string(u) + "," + std::to_string(v) +
                       ") is not a backbone UDG edge";
            add_witness(report, options, std::move(w));
        }
    }
    // Induced completeness: every UDG edge between backbone nodes is kept.
    for (const auto& [u, v] : udg.edges()) {
        if (in_backbone[u] && in_backbone[v] && !icds.has_edge(u, v)) {
            Witness w;
            w.edges = {{u, v}};
            w.detail = "backbone UDG edge (" + std::to_string(u) + "," +
                       std::to_string(v) + ") missing from ICDS";
            add_witness(report, options, std::move(w));
        }
    }
    AuditReport connected = make_report("icds_connectivity", "Lemma 8");
    check_component_refinement(connected, options, component_roots(udg), icds,
                               &in_backbone, "ICDS");
    return {"icds", {std::move(report), std::move(connected)}};
}

StageAudit audit_ldel(const GeometricGraph& udg, const core::Backbone& backbone,
                      const AuditOptions& options) {
    StageAudit stage{"ldel", {}};
    stage.reports.push_back(check_planarity_certificate(backbone.ldel_icds, options));
    stage.reports.push_back(check_backbone_degree(backbone, options));
    stage.reports.push_back(check_connectivity_preserved(udg, backbone, options));
    stage.reports.push_back(check_stretch_bounds(udg, backbone, options));
    stage.reports.push_back(check_message_bounds(backbone.messages, options));
    return stage;
}

AuditTrail audit_backbone(const GeometricGraph& udg, const core::Backbone& backbone,
                          const AuditOptions& options) {
    AuditTrail trail;
    trail.stages.push_back(audit_clustering(udg, backbone.cluster, options));
    trail.stages.push_back(
        audit_connectors(udg, backbone.cluster, backbone.cds.edges(), options));
    trail.stages.push_back(
        audit_icds(udg, backbone.in_backbone, backbone.icds, options));
    trail.stages.push_back(audit_ldel(udg, backbone, options));
    return trail;
}

}  // namespace geospanner::verify
