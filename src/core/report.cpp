#include "core/report.h"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <sstream>

namespace geospanner::core {

double PipelineStats::total_ms() const {
    double total = 0.0;
    for (const auto& s : stages) total += s.wall_ms;
    return total;
}

std::string PipelineStats::table() const {
    std::size_t name_width = 5;  // "stage"
    for (const auto& s : stages) name_width = std::max(name_width, s.name.size());
    const double total = total_ms();
    std::ostringstream out;
    out << std::left << std::setw(static_cast<int>(name_width)) << "stage" << std::right
        << std::setw(12) << "wall_ms" << std::setw(8) << "share" << std::setw(12)
        << "items" << std::setw(9) << "threads" << '\n';
    out << std::fixed << std::setprecision(3);
    for (const auto& s : stages) {
        const double share = total > 0.0 ? 100.0 * s.wall_ms / total : 0.0;
        out << std::left << std::setw(static_cast<int>(name_width)) << s.name
            << std::right << std::setw(12) << s.wall_ms << std::setprecision(1)
            << std::setw(7) << share << '%' << std::setprecision(3) << std::setw(12)
            << s.items << std::setw(9) << s.threads << '\n';
    }
    out << std::left << std::setw(static_cast<int>(name_width)) << "total" << std::right
        << std::setw(12) << total << '\n';
    return out.str();
}

std::string PipelineStats::json() const {
    std::ostringstream out;
    out << std::fixed << std::setprecision(3);
    out << "{\"total_ms\":" << total_ms() << ",\"stages\":[";
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const auto& s = stages[i];
        if (i > 0) out << ',';
        out << "{\"name\":\"" << s.name << "\",\"wall_ms\":" << s.wall_ms
            << ",\"items\":" << s.items << ",\"threads\":" << s.threads << '}';
    }
    out << "]}";
    return out.str();
}

double ms_since(StageClock::time_point start) {
    return std::chrono::duration<double, std::milli>(StageClock::now() - start).count();
}

void push_stage(PipelineStats* stats, std::string name, StageClock::time_point start,
                std::size_t items, std::size_t threads) {
    if (stats == nullptr) return;
    stats->stages.push_back({std::move(name), ms_since(start), items, threads});
}

TopologyReport measure_topology(std::string name, const graph::GeometricGraph& udg,
                                const graph::GeometricGraph& topo, bool spanning,
                                double min_euclidean, engine::ThreadPool* pool) {
    TopologyReport report;
    report.name = std::move(name);
    report.degree = graph::degree_stats(topo);
    report.edges = topo.edge_count();
    report.has_stretch = spanning;
    if (spanning) {
        report.length = graph::length_stretch(udg, topo, min_euclidean, pool);
        report.hops = graph::hop_stretch(udg, topo, min_euclidean, pool);
    }
    return report;
}

TopologyReport aggregate_reports(const std::vector<TopologyReport>& reports) {
    assert(!reports.empty());
    TopologyReport agg;
    agg.name = reports.front().name;
    agg.has_stretch = reports.front().has_stretch;
    double edges = 0.0;
    for (const auto& r : reports) {
        agg.degree.avg += r.degree.avg;
        agg.degree.max = std::max(agg.degree.max, r.degree.max);
        edges += static_cast<double>(r.edges);
        if (agg.has_stretch) {
            agg.length.avg += r.length.avg;
            agg.length.max = std::max(agg.length.max, r.length.max);
            agg.hops.avg += r.hops.avg;
            agg.hops.max = std::max(agg.hops.max, r.hops.max);
            agg.length.pair_count += r.length.pair_count;
            agg.length.disconnected_pairs += r.length.disconnected_pairs;
            agg.hops.pair_count += r.hops.pair_count;
            agg.hops.disconnected_pairs += r.hops.disconnected_pairs;
        }
    }
    const auto k = static_cast<double>(reports.size());
    agg.degree.avg /= k;
    agg.length.avg /= k;
    agg.hops.avg /= k;
    agg.edges = static_cast<std::size_t>(edges / k + 0.5);
    return agg;
}

}  // namespace geospanner::core
