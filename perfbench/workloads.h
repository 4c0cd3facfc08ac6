// The benchmark's four workloads.
//
//   build_uniform    repeated cold SpannerEngine::build, n = 50k uniform
//   build_clustered  the same n drawn as n/100 Gaussian blobs
//   serve_mobility   SpannerService at n = 20k fed 32-move jitter batches
//   serve_churn      the same, plus one join and one leave per batch
//
// Each run generates its inputs from the seed before timing starts,
// measures for the requested seconds, then checks its outputs (untimed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_dir;  ///< where the traced run writes its trace file
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> end_to_end;  ///< measured with tracing off
    std::vector<Metric> per_layer;   ///< filled by the traced run only
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; prints a human-readable report to stdout as it
/// goes. Throws std::invalid_argument on an unknown workload.
[[nodiscard]] RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
