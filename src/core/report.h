// Topology quality reports: one row of the paper's Table I per topology.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "graph/geometric_graph.h"
#include "graph/metrics.h"

namespace geospanner::core {

/// One Table-I row. Stretch fields are meaningful only when the topology
/// spans all nodes (has_stretch); backbone-only graphs (CDS, ICDS,
/// LDel(ICDS)) leave dominatees isolated, which the paper marks "-".
struct TopologyReport {
    std::string name;
    graph::DegreeStats degree;
    bool has_stretch = false;
    graph::StretchStats length;
    graph::StretchStats hops;
    std::size_t edges = 0;
};

/// Measures `topo` against the base UDG. Set `spanning` when the topology
/// is expected to connect all nodes (enables stretch computation).
/// `min_euclidean` excludes close pairs from the stretch ratios (the
/// paper measures only pairs more than one transmission radius apart).
/// A ThreadPool parallelizes the all-pairs stretch sweeps over source
/// nodes; results are identical for any thread count.
[[nodiscard]] TopologyReport measure_topology(std::string name,
                                              const graph::GeometricGraph& udg,
                                              const graph::GeometricGraph& topo,
                                              bool spanning, double min_euclidean = 0.0,
                                              engine::ThreadPool* pool = nullptr);

/// Averages reports of the same topology across instances: degree/stretch
/// averages are means of per-instance averages, maxima are maxima of
/// per-instance maxima (matching the paper's aggregation).
[[nodiscard]] TopologyReport aggregate_reports(const std::vector<TopologyReport>& reports);

/// Timing record of one named pipeline stage (UDG, clustering,
/// connectors, ICDS, LDel, planarize): wall time, items of per-node /
/// per-candidate work processed, and the thread count the stage ran at.
/// Filled by the engine's staged builder.
struct StageStats {
    std::string name;
    double wall_ms = 0.0;
    std::size_t items = 0;
    std::size_t threads = 1;
};

/// Stage breakdown of one pipeline run.
struct PipelineStats {
    std::vector<StageStats> stages;

    [[nodiscard]] double total_ms() const;
    /// Aligned-column text rendering (stage | ms | items | threads).
    [[nodiscard]] std::string table() const;
    /// One JSON object, e.g. for the bench trajectory files:
    /// {"total_ms":..,"stages":[{"name":..,"wall_ms":..,..},..]}.
    [[nodiscard]] std::string json() const;
};

/// Clock of every stage timer.
using StageClock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start` on the stage clock.
[[nodiscard]] double ms_since(StageClock::time_point start);

/// Appends the row {name, milliseconds since `start`, items, threads}
/// to `stats`; a no-op when `stats` is null.
void push_stage(PipelineStats* stats, std::string name, StageClock::time_point start,
                std::size_t items, std::size_t threads);

}  // namespace geospanner::core
