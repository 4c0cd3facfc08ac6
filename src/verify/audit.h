// Paper-invariant auditor: one machine-checkable certificate per claim.
//
// Each Lemma 1–8 property of the paper has a named checker returning a
// structured AuditReport — pass/fail plus the concrete violating
// node/edge/pair witness — instead of a bare bool, so a failing audit is
// a replayable counterexample, not just a red test. The checkers are
// pure read-only functions of finished structures; running them can
// never change a pipeline's output (the engine's audits-on/off equality
// test pins exactly that).
//
// Lemma → checker map (also in docs/ARCHITECTURE.md):
//   Lemma 1 (≤ 5 dominators per dominatee)       check_dominator_packing
//   Lemma 2 (≤ (2k+1)² dominators in k·radius)   check_dominator_packing
//   Lemma 3 (O(1) messages per node)             check_message_bounds
//   Lemma 4 (bounded CDS/ICDS/LDel degree)       check_backbone_degree
//   Lemma 5 (CDS' hop stretch ≤ 3h + 2)          check_stretch_bounds
//   Lemma 6 (CDS' length stretch ≤ constant)     check_stretch_bounds
//   Lemma 7 (LDel(ICDS) planar embedding)        check_planarity_certificate
//   Lemma 8 (LDel spanner preserves reachability) check_connectivity_preserved
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/backbone.h"
#include "graph/geometric_graph.h"
#include "protocol/cluster_state.h"

namespace geospanner::verify {

/// Concrete evidence for one violation: the offending nodes and/or
/// edges, the measured quantity, and the bound it broke.
struct Witness {
    std::vector<graph::NodeId> nodes;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    double measured = 0.0;
    double bound = 0.0;
    std::string detail;  ///< human-readable one-liner
};

/// Certificate of one checker run. Pass ⇔ no witnesses (witness
/// collection is capped at AuditOptions::max_witnesses, so a fail
/// carries at least one but not necessarily every violation).
struct AuditReport {
    std::string check;  ///< e.g. "dominator_packing"
    std::string lemma;  ///< e.g. "Lemma 1+2"
    bool pass = true;
    std::vector<Witness> witnesses;

    [[nodiscard]] explicit operator bool() const noexcept { return pass; }
    /// "check [lemma]: PASS" or a fail line with the first witness.
    [[nodiscard]] std::string summary() const;
};

/// Tunable caps. The paper's constants are existential; the degree /
/// message caps here are the empirical pins the test suite has always
/// used (a regression past them is a semantic change worth a look even
/// if some constant technically still exists).
struct AuditOptions {
    std::size_t max_witnesses = 8;
    /// Transmission radius; 0 = recover it from the longest UDG edge.
    double radius = 0.0;
    std::size_t max_dominators = 5;           ///< Lemma 1
    std::size_t max_cds_degree = 30;          ///< Lemma 4 empirical cap
    std::size_t max_icds_degree = 40;         ///< Lemma 4 empirical cap
    std::size_t max_messages_per_node = 250;  ///< Lemma 3 empirical cap
    double max_hop_stretch_slack = 2.0;       ///< Lemma 5: hops ≤ 3h + slack
    double max_length_stretch = 16.0;         ///< Lemma 6 constant (far pairs)
    /// Quasi-UDG link-radius floor factor (fault::QuasiUdgModel::alpha).
    /// Under a quasi-UDG, MIS independence only separates dominators by
    /// α·radius, so the disk-packing constants of Lemmas 1–2 relax:
    /// < 1 switches the Lemma 1 cap to the area-packing bound
    /// (2/α + 1)² and the Lemma 2 cap to (2k/α + 1)². 1.0 = exact UDG
    /// (the paper's constants).
    double independence_alpha = 1.0;
};

// ---- Per-lemma checkers ----------------------------------------------

/// Lemmas 1 and 2, plus the MIS validity they presuppose: dominators are
/// pairwise non-adjacent, every dominatee has ≥ 1 and ≤ 5 adjacent
/// dominators (all actually dominators and UDG-adjacent), and at most
/// (2k+1)² dominators lie within k·radius of any node (k = 1, 2).
[[nodiscard]] AuditReport check_dominator_packing(const graph::GeometricGraph& udg,
                                                  const protocol::ClusterState& cluster,
                                                  const AuditOptions& options = {});

/// Lemma 4: CDS, ICDS, and LDel(ICDS) degrees stay under the caps
/// (LDel(ICDS) ⊆ ICDS so it shares the ICDS cap).
[[nodiscard]] AuditReport check_backbone_degree(const core::Backbone& backbone,
                                                const AuditOptions& options = {});

/// Lemma 3: cumulative per-node message counts are monotone across
/// stages, ICDS adds exactly one RoleAnnounce, and the final count stays
/// under the cap. Vacuously passes on empty stats (centralized engine).
[[nodiscard]] AuditReport check_message_bounds(const core::MessageStats& messages,
                                               const AuditOptions& options = {});

/// Lemma 7: no two edges of g properly cross in the straight-line
/// embedding — a geometric certificate via graph::crossing_edge_pairs
/// (exact predicates), not an Euler-bound heuristic. Witnesses carry the
/// crossing edge pairs.
[[nodiscard]] AuditReport check_planarity_certificate(const graph::GeometricGraph& g,
                                                      const AuditOptions& options = {});

/// Lemma 8 (reachability half): every pair connected in the UDG stays
/// connected in LDel(ICDS'), and the backbone graphs (CDS, ICDS,
/// LDel(ICDS)) do not split backbone nodes that the UDG connects. Works
/// component-wise, so disconnected inputs audit cleanly too.
[[nodiscard]] AuditReport check_connectivity_preserved(const graph::GeometricGraph& udg,
                                                       const core::Backbone& backbone,
                                                       const AuditOptions& options = {});

/// Lemmas 5, 6, and the spanner half of Lemma 8: per-pair CDS' hop
/// distance ≤ 3h + 2 (h = UDG hop distance), CDS' length stretch for
/// pairs more than one radius apart ≤ max_length_stretch, and the same
/// length bound for LDel(ICDS') (its paths refine CDS' up to the LDel
/// constant; the shared cap is the suite's long-standing empirical pin).
/// Witnesses carry the violating pair and both path costs, in the style
/// of graph::length_stretch_witness.
[[nodiscard]] AuditReport check_stretch_bounds(const graph::GeometricGraph& udg,
                                               const core::Backbone& backbone,
                                               const AuditOptions& options = {});

// ---- Stage-level audits ----------------------------------------------

/// The reports of one pipeline stage's audit.
struct StageAudit {
    std::string stage;  ///< "clustering", "connectors", "icds", "ldel"
    std::vector<AuditReport> reports;

    [[nodiscard]] bool pass() const;
};

/// Full audit trail of one pipeline run (one StageAudit per audited
/// stage, in execution order).
struct AuditTrail {
    std::vector<StageAudit> stages;

    [[nodiscard]] bool pass() const;
    /// First failing report, or nullptr when everything passed.
    [[nodiscard]] const AuditReport* first_failure() const;
    /// One line per report; failing reports include their first witness.
    [[nodiscard]] std::string summary() const;
};

/// Post-clustering audit (Lemmas 1–2).
[[nodiscard]] StageAudit audit_clustering(const graph::GeometricGraph& udg,
                                          const protocol::ClusterState& cluster,
                                          const AuditOptions& options = {});

/// Post-connector audit: rebuilds CDS/CDS' from the elected edges and
/// checks Lemmas 5–6 on them, so a bad election is caught before the
/// later stages run.
[[nodiscard]] StageAudit audit_connectors(
    const graph::GeometricGraph& udg, const protocol::ClusterState& cluster,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& cds_edges,
    const AuditOptions& options = {});

/// Post-ICDS audit: the induced backbone is a UDG subgraph on backbone
/// nodes and preserves their UDG reachability.
[[nodiscard]] StageAudit audit_icds(const graph::GeometricGraph& udg,
                                    const std::vector<bool>& in_backbone,
                                    const graph::GeometricGraph& icds,
                                    const AuditOptions& options = {});

/// Post-LDel audit over the finished backbone: planarity certificate,
/// degree bounds, connectivity preservation, stretch bounds, message
/// bounds (Lemmas 3, 4, 7, 8 + the full stretch re-check).
[[nodiscard]] StageAudit audit_ldel(const graph::GeometricGraph& udg,
                                    const core::Backbone& backbone,
                                    const AuditOptions& options = {});

/// Runs every stage audit over a finished backbone — the one-call "did
/// this pipeline change semantics" gate used by tests and the fuzz
/// harness.
[[nodiscard]] AuditTrail audit_backbone(const graph::GeometricGraph& udg,
                                        const core::Backbone& backbone,
                                        const AuditOptions& options = {});

}  // namespace geospanner::verify
