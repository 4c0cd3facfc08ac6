// Benchmark entry point: runs one workload and prints a human-readable
// report followed, as the last line, by one JSON object
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). Exits 1 when an output check failed.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "fingerprint.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument("bad value for " + flag);
    return v;
}

std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string result_json(const perfbench::RunResult& r, bool trace) {
    std::string out = "{\"correct\":";
    out += r.correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
    const auto& metrics = trace ? r.per_layer : r.end_to_end;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (i > 0) out += ',';
        out += perfbench::json_quote(m.name);
        out += ":{\"value\":" + number(m.value);
        out += ",\"unit\":" + perfbench::json_quote(m.unit) + "}";
    }
    return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunConfig config;
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; i += 2) {
            const std::string flag = argv[i];
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
            const std::string value = argv[i + 1];
            if (flag == "--workload") {
                config.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                config.seed = parse_u64(flag, value);
            } else if (flag == "--seconds") {
                config.seconds = static_cast<double>(parse_u64(flag, value));
                if (config.seconds < 1.0) throw std::invalid_argument("--seconds must be >= 1");
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
                config.trace = value == "1";
            } else if (flag == "--trace-dir") {
                config.trace_dir = value;
            } else if (flag == "--git-sha") {
                git_sha = value;
            } else if (flag == "--source-digest") {
                source_digest = value;
            } else {
                throw std::invalid_argument("unknown flag " + flag);
            }
        }
        if (!have_workload) throw std::invalid_argument("--workload is required");
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    try {
        const perfbench::Fingerprint fp =
            perfbench::make_fingerprint(config.seed, git_sha, source_digest);
        std::printf("fingerprint %s\n", fp.json().c_str());
        std::printf("workload %s seed %llu seconds %.0f trace %d\n", config.workload.c_str(),
                    static_cast<unsigned long long>(config.seed), config.seconds,
                    config.trace ? 1 : 0);
        std::fflush(stdout);
        const perfbench::RunResult result = perfbench::run_workload(config);
        std::printf("end-to-end:\n");
        for (const Metric& m : result.end_to_end) {
            std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
        }
        std::printf("  %-28s %14.6f ratio (%llu of %llu operations)\n", "failed_share",
                    result.attempted == 0
                        ? 0.0
                        : static_cast<double>(result.failed) /
                              static_cast<double>(result.attempted),
                    static_cast<unsigned long long>(result.failed),
                    static_cast<unsigned long long>(result.attempted));
        if (config.trace) {
            std::printf("per-layer:\n");
            for (const Metric& m : result.per_layer) {
                std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
            }
        }
        std::printf("%s\n", result_json(result, config.trace).c_str());
        return result.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::cerr << "perfbench: " << e.what() << "\n";
        return 3;
    }
}
