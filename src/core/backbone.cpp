#include "core/backbone.h"

#include <algorithm>

#include "protocol/clustering.h"
#include "proximity/ldel_k.h"
#include "protocol/ldel2_protocol.h"
#include "protocol/ldel_protocol.h"
#include "protocol/messages.h"

namespace geospanner::core {

using graph::GeometricGraph;
using graph::NodeId;

std::size_t MessageStats::max_of(const std::vector<std::size_t>& counts) {
    std::size_t m = 0;
    for (const std::size_t c : counts) m = std::max(m, c);
    return m;
}

double MessageStats::avg_of(const std::vector<std::size_t>& counts) {
    if (counts.empty()) return 0.0;
    std::size_t total = 0;
    for (const std::size_t c : counts) total += c;
    return static_cast<double>(total) / static_cast<double>(counts.size());
}

GeometricGraph induce_on_backbone(const GeometricGraph& udg,
                                  const std::vector<bool>& in_backbone,
                                  engine::ThreadPool* pool) {
    return GeometricGraph::from_adjacency(
        udg.points(),
        graph::NodeLists::gather(pool, udg.node_count(),
                                 [&](std::size_t v, std::vector<NodeId>& out) {
                                     if (!in_backbone[v]) return;
                                     for (const NodeId u : udg.neighbors(static_cast<NodeId>(v))) {
                                         if (in_backbone[u]) out.push_back(u);
                                     }
                                 }));
}

graph::NodeLists dominatee_links(const GeometricGraph& udg,
                                 const protocol::ClusterState& cluster,
                                 engine::ThreadPool* pool) {
    return graph::NodeLists::gather(
        pool, udg.node_count(), [&](std::size_t i, std::vector<NodeId>& out) {
            const auto v = static_cast<NodeId>(i);
            if (!cluster.is_dominator(v)) {
                const auto doms = cluster.dominators(v);
                out.insert(out.end(), doms.begin(), doms.end());
                return;
            }
            for (const NodeId w : udg.neighbors(v)) {
                if (cluster.is_dominator(w)) continue;
                const auto doms = cluster.dominators(w);
                if (std::binary_search(doms.begin(), doms.end(), v)) out.push_back(w);
            }
        });
}

void assemble_graphs(Backbone& result, const GeometricGraph& udg,
                     const protocol::ConnectorState& connectors, engine::ThreadPool* pool) {
    result.is_connector = connectors.is_connector;
    // cds_edges is sorted and duplicate-free by the connector contract,
    // exactly the bulk constructor's precondition.
    result.cds = GeometricGraph::from_edges(udg.points(), connectors.cds_edges);
    const graph::NodeLists links = dominatee_links(udg, result.cluster, pool);
    result.cds_prime = result.cds.united_with(links, pool);
    result.icds_prime = result.icds.united_with(links, pool);
    result.ldel_icds_prime = result.ldel_icds.united_with(links, pool);
}

Backbone build_backbone(const GeometricGraph& udg, BuildOptions options) {
    const auto n = static_cast<NodeId>(udg.node_count());
    Backbone result;

    protocol::ConnectorState connectors;
    if (options.engine == Engine::kDistributed) {
        protocol::Net net(udg);
        result.cluster = protocol::run_clustering(net, udg, options.cluster_policy);
        connectors = protocol::run_connectors(net, udg, result.cluster);
        result.messages.after_cds = net.per_node_sent();

        // One RoleAnnounce per node turns CDS knowledge into ICDS
        // knowledge (each node learns which neighbors are backbone).
        result.in_backbone.assign(n, false);
        for (NodeId v = 0; v < n; ++v) {
            result.in_backbone[v] =
                result.cluster.is_dominator(v) || connectors.is_connector[v];
            net.broadcast(v, protocol::RoleAnnounce{result.in_backbone[v]});
        }
        net.advance();
        result.messages.after_icds = net.per_node_sent();

        result.icds = induce_on_backbone(udg, result.in_backbone);

        // The LDel negotiation runs among backbone nodes; its radio graph
        // is exactly ICDS (backbone nodes within range hear each other).
        protocol::Net backbone_net(result.icds);
        protocol::LDelState ldel =
            options.planarizer == Planarizer::kLdel1
                ? protocol::run_ldel(backbone_net, result.icds,
                                     /*announce_positions=*/false)
                : protocol::run_ldel2(backbone_net, result.icds,
                                      /*announce_positions=*/false);
        result.ldel_triangles = std::move(ldel.triangles);
        result.ldel_icds = std::move(ldel.graph);

        result.messages.after_ldel = result.messages.after_icds;
        result.messages.ldel_units.assign(n, 0);
        for (NodeId v = 0; v < n; ++v) {
            result.messages.after_ldel[v] += backbone_net.messages_sent(v);
            result.messages.ldel_units[v] = backbone_net.units_sent(v);
        }
    } else {
        result.cluster = protocol::cluster_reference(udg, options.cluster_policy);
        connectors = protocol::elect_connectors(udg, result.cluster);
        result.in_backbone.assign(n, false);
        for (NodeId v = 0; v < n; ++v) {
            result.in_backbone[v] =
                result.cluster.is_dominator(v) || connectors.is_connector[v];
        }
        result.icds = induce_on_backbone(udg, result.in_backbone);
        result.ldel_triangles =
            options.planarizer == Planarizer::kLdel1
                ? proximity::planarize_triangles(result.icds,
                                                 proximity::ldel1_triangles(result.icds))
                : proximity::ldel_k_triangles(result.icds, 2);
        result.ldel_icds = proximity::ldel_graph(result.icds, result.ldel_triangles);
    }

    assemble_graphs(result, udg, connectors);
    return result;
}

}  // namespace geospanner::core
