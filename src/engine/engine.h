// Batched, multi-threaded spanner-construction pipeline.
//
// The paper's construction is node-local at every step — O(1) messages
// and O(d log d) computation per node — so every stage after the grid
// build runs as an owner-computes kernel on the pool's lanes: the UDG
// cell scans, each MIS round, the connector elections of each
// dominator, ICDS, the per-node local Delaunay triangles, Algorithm 3
// over triangle pairs, and the CSR assembly of every output graph. The
// kernels live below the engine (protocol::cluster_reference,
// protocol::elect_connectors, core::induce_on_backbone,
// proximity::ldel1_triangles, proximity::planarize_triangles,
// proximity::ldel_graph, core::assemble_graphs); core::build_backbone
// runs the same functions on one lane, and dynamic::DynamicSpanner
// re-runs their owner bodies over an update batch's dirty owners. When
// a batch is patched and when it is rebuilt is the patcher's decision
// (dynamic/spanner.h), not an engine option.
//
// Determinism contract: for any thread count, the engine produces
// edge-for-edge identical output to the sequential centralized path
// (`proximity::build_udg` + `core::build_backbone` with
// Engine::kCentralized). Each owner writes only its own slice, slices
// join in owner order, and shared marks only go from 0 to 1; nothing
// ever depends on scheduling order. tests/test_engine.cpp asserts the
// equality across thread counts, seeds, and workload shapes.
//
// Each stage records wall time, items processed, and the lanes it ran
// at into a core::PipelineStats report.
#pragma once

#include <cstddef>
#include <vector>

#include "core/backbone.h"
#include "core/report.h"
#include "engine/thread_pool.h"
#include "graph/geometric_graph.h"
#include "verify/audit.h"

namespace geospanner::engine {

struct EngineOptions {
    std::size_t threads = 0;  ///< 0 → hardware concurrency
    protocol::ClusterPolicy cluster_policy = protocol::ClusterPolicy::kLowestId;
    core::Planarizer planarizer = core::Planarizer::kLdel1;
    /// Opt-in post-stage verification: after the clustering, connector,
    /// ICDS, and LDel stages the engine runs the matching verify::
    /// checkers and appends a StageAudit to the result's trail. Audits
    /// are read-only — output is edge-identical with audits on or off at
    /// any thread count (test_engine.cpp pins this).
    bool audit = false;
    verify::AuditOptions audit_options;  ///< caps used when audit is on
};

/// One constructed instance: the UDG, every backbone topology, the
/// stage timing breakdown, and (when EngineOptions::audit) the
/// per-stage invariant certificates.
struct BuildResult {
    graph::GeometricGraph udg;
    core::Backbone backbone;
    core::PipelineStats stats;
    verify::AuditTrail audit;  ///< empty unless EngineOptions::audit
};

/// Per-owner intermediates a staged build computes anyway, handed out to
/// callers that keep patching the result (dynamic::DynamicSpanner seeds
/// its patch state from them).
struct BuildIntermediates {
    protocol::ConnectorSlices connectors;       ///< every node's elected CDS links
    proximity::LocalTriangles local;            ///< ICDS local triangles (kLdel1 only)
    std::vector<proximity::TriangleKey> ldel1;  ///< LDel¹ set, sorted (kLdel1 only)
};

/// UDG stage on `pool`'s lanes: the per-node grid-cell scan runs in
/// parallel, the edge merge happens in node order. Identical output to
/// proximity::build_udg. Appends "grid" (spatial-grid / Morton reorder
/// cost) and "udg" (neighbor scans) stages to `stats` when given.
/// Every engine-backed builder enters here, so this is where hostile
/// input stops: throws std::invalid_argument on a non-finite radius or
/// a point outside proximity::in_grid_range.
[[nodiscard]] graph::GeometricGraph build_udg_staged(ThreadPool& pool,
                                                     std::vector<geom::Point> points,
                                                     double radius,
                                                     core::PipelineStats* stats = nullptr);

/// Clustering → connectors → ICDS → LDel → planarize → assemble over an
/// existing UDG, parallelizing the per-node work of each stage on
/// `pool`'s lanes. Identical output to core::build_backbone with
/// Engine::kCentralized (message stats stay empty, as there). Appends
/// one StageStats entry per stage to `stats` when given. When
/// `options.audit` and `trail` are both set, runs the post-stage
/// verify:: audits and appends their StageAudits to `trail`. `keep`,
/// when given, receives the stages' per-owner intermediates.
[[nodiscard]] core::Backbone build_backbone_staged(ThreadPool& pool,
                                                   const graph::GeometricGraph& udg,
                                                   const EngineOptions& options,
                                                   core::PipelineStats* stats = nullptr,
                                                   verify::AuditTrail* trail = nullptr,
                                                   BuildIntermediates* keep = nullptr);

/// Facade owning the pool: one engine, many builds.
class SpannerEngine {
  public:
    explicit SpannerEngine(EngineOptions options = {});

    [[nodiscard]] std::size_t thread_count() const noexcept {
        return pool_.thread_count();
    }
    [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }
    [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }

    /// Full pipeline from raw node positions.
    [[nodiscard]] BuildResult build(std::vector<geom::Point> points, double radius);

    /// Staged pipeline over an existing UDG (no UDG stage). `trail`
    /// receives the post-stage audit certificates when the engine was
    /// configured with EngineOptions::audit.
    [[nodiscard]] core::Backbone build_backbone(const graph::GeometricGraph& udg,
                                                core::PipelineStats* stats = nullptr,
                                                verify::AuditTrail* trail = nullptr);

  private:
    EngineOptions options_;
    ThreadPool pool_;
};

}  // namespace geospanner::engine
