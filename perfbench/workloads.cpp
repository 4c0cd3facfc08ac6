#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numbers>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/workload.h"
#include "engine/engine.h"
#include "geom/predicates.h"
#include "load.h"
#include "random/rng.h"
#include "routing/backbone_routing.h"
#include "service/service.h"
#include "stats.h"
#include "trace.h"
#include "verify/audit.h"

namespace perfbench {

namespace {

using namespace geospanner;
using graph::GeometricGraph;
using graph::NodeId;

// Fixed load shape. The engine runs at a fixed lane count rather than
// hardware_concurrency so results from different machines describe the
// same configuration.
constexpr std::size_t kLanes = 4;
constexpr double kRadius = 1.0;
constexpr double kExpectedDegree = 12.0;
constexpr std::size_t kBuildNodes = 50000;
constexpr std::size_t kServeNodes = 20000;
// Set-up is timed this many times before the measured phase and
// kLateSetups more after it, so the reported median is not decided by one
// stretch of a noisy host.
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kLateSetups = 2;
constexpr std::size_t kMinBuilds = 5;
// Queries run in rounds over one fixed list of this many pairs, so every
// round does the same work. query_ms_p50 is the median over rounds of a
// round's mean query time: single-route times spread over a decade, so a
// per-query median moves a lot when part of a run is slowed, while
// identical rounds only move by the slowdown itself.
constexpr std::size_t kQueryRound = 1024;
// Full audit_backbone includes an all-pairs stretch check and a Lemma 2
// packing count, both quadratic in n, so the complete certificate runs
// on an instance of this size drawn by the same generator at the same
// density.
constexpr std::size_t kAuditNodes = 800;
constexpr std::size_t kMovesPerBatch = 32;
constexpr double kStep = kRadius / 4.0;
constexpr std::size_t kMinClosedBatches = 3;
constexpr std::size_t kMinOpenBatches = 3;
// The serve reader answers ~10^5 queries a second; tracing one in 64
// keeps the exported trace to a few MB.
constexpr std::size_t kReaderTraceEvery = 64;

struct ServeSpec {
    bool churn = false;
    double rate_per_s = 1.0;        ///< open-loop batch rate
    double publish_limit_ms = 0.0;  ///< fixed latency limit on publish p90
    std::size_t closed_cap = 0;     ///< schedule room for the closed loop
};

// Rates are fixed at about half the closed-loop saturation rate measured
// when this benchmark was defined (4-vCPU x86 VM, Release), so the open
// loop runs with headroom instead of a growing backlog.
constexpr ServeSpec kMobility{false, 7.0, 250.0, 4000};
constexpr ServeSpec kChurn{true, 0.6, 2500.0, 400};

double side_for(std::size_t n) {
    return kRadius * std::sqrt(static_cast<double>(n) * std::numbers::pi / kExpectedDegree);
}

std::vector<geom::Point> make_points(std::size_t n, bool clustered, std::uint64_t seed) {
    core::WorkloadConfig config;
    config.node_count = n;
    config.side = side_for(n);
    config.radius = kRadius;
    config.seed = seed;
    return clustered ? core::clustered_points(config, std::max<std::size_t>(1, n / 100))
                     : core::uniform_points(config);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::uint32_t> component_labels(const GeometricGraph& g) {
    constexpr auto kUnset = static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> label(g.node_count(), kUnset);
    std::uint32_t next = 0;
    std::vector<NodeId> stack;
    for (NodeId s = 0; s < g.node_count(); ++s) {
        if (label[s] != kUnset) continue;
        label[s] = next;
        stack.assign(1, s);
        while (!stack.empty()) {
            const NodeId v = stack.back();
            stack.pop_back();
            for (const NodeId u : g.neighbors(v)) {
                if (label[u] == kUnset) {
                    label[u] = next;
                    stack.push_back(u);
                }
            }
        }
        ++next;
    }
    return label;
}

using Pair = std::pair<NodeId, NodeId>;

/// Query pairs: a source uniform over nodes that have a neighbor and a
/// destination uniform over the rest of its UDG component, so an
/// undelivered route is a real routing failure and the pair mix does
/// not hinge on how one seed's components happen to fall.
std::vector<Pair> draw_pairs(const GeometricGraph& udg, std::size_t count,
                             std::uint64_t seed) {
    const auto label = component_labels(udg);
    std::vector<std::vector<NodeId>> members;
    for (NodeId v = 0; v < label.size(); ++v) {
        if (label[v] >= members.size()) members.resize(label[v] + 1);
        members[label[v]].push_back(v);
    }
    std::vector<NodeId> sources;
    for (NodeId v = 0; v < label.size(); ++v) {
        if (members[label[v]].size() > 1) sources.push_back(v);
    }
    std::vector<Pair> pairs;
    if (sources.empty()) return pairs;
    rnd::Xoshiro256 rng(seed);
    while (pairs.size() < count) {
        const NodeId a = sources[rng.below(sources.size())];
        const auto& component = members[label[a]];
        const NodeId b = component[rng.below(component.size())];
        if (a != b) pairs.emplace_back(a, b);
    }
    return pairs;
}

/// "" when both (udg, backbone) pairs are identical; otherwise the name
/// of the first diverging structure.
std::string topology_diff(const GeometricGraph& got_udg, const core::Backbone& got,
                          const GeometricGraph& want_udg, const core::Backbone& want) {
    if (!(got_udg == want_udg)) return "udg";
    if (got.cluster.role != want.cluster.role) return "cluster.role";
    if (got.cluster.dominators_of != want.cluster.dominators_of) return "dominators_of";
    if (got.is_connector != want.is_connector) return "is_connector";
    if (got.in_backbone != want.in_backbone) return "in_backbone";
    if (!(got.cds == want.cds)) return "cds";
    if (!(got.cds_prime == want.cds_prime)) return "cds_prime";
    if (!(got.icds == want.icds)) return "icds";
    if (!(got.icds_prime == want.icds_prime)) return "icds_prime";
    if (!(got.ldel_icds == want.ldel_icds)) return "ldel_icds";
    if (!(got.ldel_icds_prime == want.ldel_icds_prime)) return "ldel_icds_prime";
    if (got.ldel_triangles != want.ldel_triangles) return "ldel_triangles";
    return {};
}

/// Sets `stop` and joins `thread` when the scope ends.
struct StopAndJoin {
    std::atomic<bool>& stop;
    std::thread& thread;

    ~StopAndJoin() {
        stop.store(true, std::memory_order_release);
        if (thread.joinable()) thread.join();
    }
};

/// Tallies of one output check; prints a line per check.
struct Checks {
    std::uint64_t run = 0;
    std::uint64_t failed = 0;

    void record(const std::string& name, bool pass, double seconds,
                const std::string& detail = {}) {
        ++run;
        if (!pass) ++failed;
        std::printf("check %-28s %s  (%.2f s)%s%s\n", name.c_str(), pass ? "pass" : "FAIL",
                    seconds, detail.empty() ? "" : "  ", detail.c_str());
    }
};

/// The engine's stage rows, in pipeline order, with their span names.
struct StageName {
    const char* stage;
    const char* span;
};
constexpr StageName kStages[] = {
    {"grid", "engine.grid"},
    {"udg", "engine.udg"},
    {"clustering", "engine.clustering"},
    {"connectors", "engine.connectors"},
    {"icds", "engine.icds"},
    {"ldel", "engine.ldel"},
    {"planarize", "engine.planarize"},
    {"assemble", "engine.assemble"},
};

const char* stage_span_name(const std::string& stage) {
    for (const StageName& s : kStages) {
        if (stage == s.stage) return s.span;
    }
    return "engine.unnamed_stage";
}

void add(std::vector<Metric>& out, std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Routing samples of one run. Per-query series are histograms so their
/// memory does not depend on how many queries a run manages.
struct QueryLog {
    LogHistogram query_ms;
    LogHistogram traced_query_ms;
    LogHistogram untraced_query_ms;
    LogHistogram route_us;
    LogHistogram snapshot_ms;  ///< snapshot() call, serve workloads only
    std::vector<double> router_build_ms;
    std::vector<double> round_ms;  ///< mean query time of each full round
    double hops_total = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;      ///< undelivered within one UDG component
    std::uint64_t unroutable = 0;  ///< endpoints not connected in that snapshot

    void record(double ms, bool traced) {
        query_ms.add(ms);
        (traced ? traced_query_ms : untraced_query_ms).add(ms);
    }

    /// Scores one route over `udg`; a miss counts as a failure only when
    /// the endpoints share a component.
    void score(const routing::RouteResult& result, const GeometricGraph& udg, Pair pair) {
        if (result.delivered) {
            ++delivered;
            hops_total += static_cast<double>(result.hops());
            return;
        }
        const auto label = component_labels(udg);
        if (label[pair.first] == label[pair.second]) {
            ++failed;
        } else {
            ++unroutable;
        }
    }
};

/// Self time of each span name and its share of all traced self time.
void print_self_times(const std::vector<const Tracer*>& tracers) {
    std::map<std::string, double> self;
    for (const Tracer* t : tracers) {
        for (const auto& [name, ms] : t->self_ms_by_name()) self[name] += ms;
    }
    double total = 0.0;
    for (const auto& [name, ms] : self) total += ms;
    std::printf("trace self time by span (share of all traced time):\n");
    for (const auto& [name, ms] : self) {
        std::printf("  %-28s %12.3f ms  %6.2f%%\n", name.c_str(), ms,
                    100.0 * ratio(ms, total));
    }
}

void export_trace(const RunConfig& config, const std::vector<const Tracer*>& tracers) {
    if (config.trace_dir.empty()) return;
    std::filesystem::create_directories(config.trace_dir);
    const std::string path = config.trace_dir + "/trace_" + config.workload + "_seed" +
                             std::to_string(config.seed) + ".json";
    std::ofstream out(path);
    out << chrome_trace_json(tracers);
    std::printf("trace written to %s\n", path.c_str());
}

std::size_t span_count(const std::vector<const Tracer*>& tracers) {
    std::size_t n = 0;
    for (const Tracer* t : tracers) n += t->spans().size();
    return n;
}

/// Per-layer counts that must stay constant for a given input.
void add_work_counts(std::vector<Metric>& out, const engine::BuildResult& build) {
    std::size_t candidates = 0;
    std::size_t triangles = 0;
    for (const auto& stage : build.stats.stages) {
        if (stage.name == "connectors") candidates = stage.items;
        if (stage.name == "planarize") triangles = stage.items;
    }
    add(out, "proximity.udg_edges", static_cast<double>(build.udg.edge_count()), "count");
    add(out, "engine.backbone_nodes", static_cast<double>(build.backbone.backbone_size()),
        "count");
    add(out, "engine.connector_candidates", static_cast<double>(candidates), "count");
    add(out, "engine.alg3_triangles", static_cast<double>(triangles), "count");
}

/// Query-time accounting over every query of the run: snapshot call,
/// router build, route and the remainder, as shares of query time.
void add_query_shares(std::vector<Metric>& out, const QueryLog& q) {
    const double total = q.query_ms.sum();
    const double snapshot = q.snapshot_ms.sum();
    const double router =
        std::accumulate(q.router_build_ms.begin(), q.router_build_ms.end(), 0.0);
    const double route = q.route_us.sum() / 1000.0;
    add(out, "query.snapshot_share", ratio(snapshot, total), "ratio");
    add(out, "query.router_build_share", ratio(router, total), "ratio");
    add(out, "query.route_share", ratio(route, total), "ratio");
    add(out, "query.other_share", ratio(total - snapshot - router - route, total), "ratio");
}

void add_routing_layer(std::vector<Metric>& out, const QueryLog& q) {
    add(out, "routing.route_us_p50", q.route_us.quantile(0.5), "us");
    add(out, "routing.router_build_ms_p50", quantile(q.router_build_ms, 0.5), "ms");
    add(out, "routing.hops_mean", ratio(q.hops_total, static_cast<double>(q.delivered)),
        "count");
    const double attempted = static_cast<double>(q.delivered + q.failed + q.unroutable);
    add(out, "routing.delivered_share", ratio(static_cast<double>(q.delivered), attempted),
        "ratio");
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    double publish_p50, const QueryLog& queries, double updates_per_s,
                    double rss_mb) {
    add(result.end_to_end, "setup_s", quantile(setup_s, 0.5), "s");
    add(result.end_to_end, "publish_ms_p50", publish_p50, "ms");
    add(result.end_to_end, "query_ms_p50", quantile(queries.round_ms, 0.5), "ms");
    add(result.end_to_end, "updates_per_s", updates_per_s, "1/s");
    add(result.end_to_end, "peak_rss_mb", rss_mb, "MB");
}

template <typename Samples>
void print_summary(const char* name, const Samples& samples, const char* unit) {
    std::printf("  %-26s %s %s\n", name, summarize(samples).describe().c_str(), unit);
}

// ---- Build workloads -------------------------------------------------

RunResult run_build(const RunConfig& config, bool clustered) {
    RunResult result;
    const std::vector<geom::Point> points = make_points(kBuildNodes, clustered, config.seed);
    engine::EngineOptions options;
    options.threads = kLanes;

    // Set-up: engine construction plus the first (warm-up) build.
    std::vector<double> setup_s;
    std::unique_ptr<engine::SpannerEngine> engine;
    engine::BuildResult warm;
    const auto set_up = [&] {
        engine.reset();
        warm = {};
        const double t0 = now_us();
        engine = std::make_unique<engine::SpannerEngine>(options);
        warm = engine->build(points, kRadius);
        setup_s.push_back((now_us() - t0) / 1e6);
    };
    for (std::size_t r = 0; r < kSetupRepeats; ++r) set_up();
    const std::vector<Pair> pairs = draw_pairs(warm.udg, kQueryRound, config.seed + 1);
    warm = {};
    if (pairs.empty()) throw std::runtime_error("no routable query pairs");

    Tracer tracer(config.trace, 1);
    std::vector<double> build_ms;
    std::vector<double> traced_build_ms;
    std::vector<double> untraced_build_ms;
    std::vector<double> serial_ms;
    double pred_calls = 0.0;
    double pred_exact = 0.0;
    QueryLog queries;
    engine::BuildResult last;
    const double deadline = now_ms() + config.seconds * 1000.0;
    std::size_t builds = 0;
    for (; builds < kMinBuilds || now_ms() < deadline; ++builds) {
        const bool traced = config.trace && builds % 2 == 0;
        tracer.set_enabled(traced);
        last = {};  // freeing the previous result is not part of a build
        geom::reset_predicate_counters();
        const double t0 = now_us();
        const int span = tracer.begin("engine.build", -1, builds);
        engine::BuildResult built = engine->build(points, kRadius);
        tracer.end(span);
        const double t1 = now_us();
        const double ms = (t1 - t0) / 1000.0;
        build_ms.push_back(ms);
        (traced ? traced_build_ms : untraced_build_ms).push_back(ms);
        const geom::PredicateCounters pred = geom::predicate_counters();
        pred_calls += static_cast<double>(pred.total());
        pred_exact += static_cast<double>(pred.exact_total());

        // Stage rows become child spans laid end to end from the build's
        // start: durations are the engine's own, so the build span's
        // self time is what no stage row accounts for.
        double cursor = t0;
        double serial = 0.0;
        for (const auto& stage : built.stats.stages) {
            tracer.add(stage_span_name(stage.name), cursor, cursor + stage.wall_ms * 1000.0,
                       span, builds);
            cursor += stage.wall_ms * 1000.0;
            if (stage.threads == 1) serial += stage.wall_ms;
        }
        serial_ms.push_back(serial);

        // One query round over the fresh build: the first query pays the
        // router build.
        const double round_start = now_us();
        double q_start = round_start;
        int q_span = tracer.begin("query", -1, builds);
        const int rb_span = tracer.begin("routing.router_build", q_span, builds);
        const routing::BackboneRouter router(built.backbone, built.udg);
        tracer.end(rb_span);
        queries.router_build_ms.push_back((now_us() - q_start) / 1000.0);
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            if (i > 0) {
                q_start = now_us();
                q_span = tracer.begin("query", -1, builds);
            }
            const Pair pair = pairs[i];
            const double r0 = now_us();
            const int r_span = tracer.begin("routing.route", q_span, builds);
            const routing::RouteResult route = router.route(pair.first, pair.second);
            tracer.end(r_span);
            tracer.end(q_span);
            const double r1 = now_us();
            queries.route_us.add(r1 - r0);
            queries.record((r1 - q_start) / 1000.0, traced);
            queries.score(route, built.udg, pair);
        }
        queries.round_ms.push_back((now_us() - round_start) / 1000.0 /
                                   static_cast<double>(pairs.size()));
        last = std::move(built);
    }
    const double rss = peak_rss_mb();
    {
        engine::BuildResult kept = std::move(last);
        for (std::size_t r = 0; r < kLateSetups; ++r) set_up();
        warm = {};
        last = std::move(kept);
    }

    // Output checks (untimed).
    Checks checks;
    {
        engine::EngineOptions one_lane = options;
        one_lane.threads = 1;
        engine::SpannerEngine single(one_lane);
        const double t0 = now_us();
        const engine::BuildResult reference = single.build(points, kRadius);
        const double one_lane_ms = (now_us() - t0) / 1000.0;
        const std::string diff =
            topology_diff(last.udg, last.backbone, reference.udg, reference.backbone);
        checks.record("four_lanes_equal_one_lane", diff.empty(), one_lane_ms / 1000.0,
                      diff.empty() ? "" : "first divergence: " + diff);
        if (config.trace) {
            add(result.per_layer, "engine.build_1t_ms", one_lane_ms, "ms");
            add(result.per_layer, "engine.speedup_4t",
                ratio(one_lane_ms, quantile(build_ms, 0.5)), "x");
        }
    }
    {
        verify::AuditOptions audit;
        audit.radius = kRadius;
        const double t0 = now_us();
        const core::Backbone& bb = last.backbone;
        // The Lemma 2 packing count and the stretch check are quadratic
        // in n; both run in the full audit on the small instance below.
        const std::vector<verify::AuditReport> reports = {
            verify::check_backbone_degree(bb, audit),
            verify::check_planarity_certificate(bb.ldel_icds, audit),
            verify::check_connectivity_preserved(last.udg, bb, audit),
        };
        const verify::StageAudit icds =
            verify::audit_icds(last.udg, bb.in_backbone, bb.icds, audit);
        std::string first_fail;
        for (const auto& r : reports) {
            if (!r.pass && first_fail.empty()) first_fail = r.summary();
        }
        if (!icds.pass() && first_fail.empty()) first_fail = "icds audit failed";
        checks.record("lemma_checks_last_build", first_fail.empty(), (now_us() - t0) / 1e6,
                      first_fail);
    }
    {
        const double t0 = now_us();
        const std::vector<geom::Point> small = make_points(kAuditNodes, clustered, config.seed);
        const engine::BuildResult built = engine->build(small, kRadius);
        verify::AuditOptions audit;
        audit.radius = kRadius;
        const verify::AuditTrail trail = verify::audit_backbone(built.udg, built.backbone, audit);
        const verify::AuditReport* failure = trail.first_failure();
        checks.record("audit_backbone_small", trail.pass(), (now_us() - t0) / 1e6,
                      failure == nullptr ? "" : failure->summary());
    }

    result.attempted = builds + queries.query_ms.count() + checks.run;
    result.failed = queries.failed + checks.failed;
    result.correct = result.failed == 0;

    const double build_p50 = quantile(build_ms, 0.5);
    // A cold build re-places all n nodes: its update rate is n per build.
    add_end_to_end(result, setup_s, build_p50, queries,
                   ratio(static_cast<double>(kBuildNodes), build_p50 / 1000.0), rss);

    std::printf("samples:\n");
    print_summary("setup_s", setup_s, "s");
    print_summary("build_ms (publish)", build_ms, "ms");
    print_summary("query_ms", queries.query_ms, "ms");
    print_summary("query_round_ms (mean)", queries.round_ms, "ms");
    print_summary("route_us", queries.route_us, "us");
    print_summary("router_build_ms", queries.router_build_ms, "ms");
    std::printf("  build_s_p50 = %.6f s over %zu builds; queries %zu, unroutable %llu\n",
                build_p50 / 1000.0, builds, queries.query_ms.count(),
                static_cast<unsigned long long>(queries.unroutable));

    if (config.trace) {
        // Mean self time per traced build, per stage span.
        const auto self = tracer.self_ms_by_name();
        const double traced_builds = static_cast<double>(traced_build_ms.size());
        const auto per_build = [&](const std::string& name) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0 : it->second / traced_builds;
        };
        double stage_sum = 0.0;
        for (const StageName& stage : kStages) {
            const double ms = per_build(stage.span);
            stage_sum += ms;
            add(result.per_layer, std::string(stage.span) + "_ms", ms, "ms");
        }
        add(result.per_layer, "engine.other_ms", per_build("engine.build"), "ms");
        add(result.per_layer, "engine.serial_ms", mean(serial_ms), "ms");
        add(result.per_layer, "geom.pred_calls", pred_calls / static_cast<double>(builds),
            "count");
        add(result.per_layer, "geom.pred_exact_share", ratio(pred_exact, pred_calls),
            "ratio");
        add_work_counts(result.per_layer, last);
        for (const char* name :
             {"dynamic.apply_ms_p50", "dynamic.apply_ms_p90", "service.snapshot_copy_ms_p50",
              "service.queue_wait_ms_p50"}) {
            add(result.per_layer, name, 0.0, "ms");
        }
        for (const char* name : {"dynamic.fallback_share", "dynamic.components_per_batch"}) {
            add(result.per_layer, name, 0.0, "ratio");
        }
        add(result.per_layer, "dynamic.component_fallbacks", 0.0, "count");
        add(result.per_layer, "service.enqueue_us_p50", 0.0, "us");
        add(result.per_layer, "service.snapshots_published", 0.0, "count");
        add_routing_layer(result.per_layer, queries);
        add_query_shares(result.per_layer, queries);
        add(result.per_layer, "load.generator_lag_ms_p99", 0.0, "ms");
        add(result.per_layer, "load.backlog_max", 0.0, "count");
        add(result.per_layer, "trace.overhead_ms",
            quantile(traced_build_ms, 0.5) - quantile(untraced_build_ms, 0.5), "ms");
        add(result.per_layer, "trace.spans", static_cast<double>(tracer.spans().size()),
            "count");

        std::printf("build accounting (mean ms per traced build): stages %.3f + other %.3f"
                    " = %.3f (traced build mean %.3f)\n",
                    stage_sum, per_build("engine.build"), stage_sum + per_build("engine.build"),
                    mean(traced_build_ms));
        const std::vector<const Tracer*> tracers = {&tracer};
        print_self_times(tracers);
        export_trace(config, tracers);
    }
    return result;
}

// ---- Serve workloads -------------------------------------------------

RunResult run_serve(const RunConfig& config, const ServeSpec& spec) {
    RunResult result;
    const std::vector<geom::Point> points = make_points(kServeNodes, false, config.seed);
    engine::EngineOptions options;
    options.threads = kLanes;

    // Set-up: engine and service construction (the service's initial
    // build) plus the first snapshot.
    std::vector<double> setup_s;
    std::unique_ptr<service::SpannerService> svc;
    std::unique_ptr<engine::SpannerEngine> engine;
    const auto set_up = [&] {
        svc.reset();
        engine.reset();
        const double t0 = now_us();
        engine = std::make_unique<engine::SpannerEngine>(options);
        svc = std::make_unique<service::SpannerService>(*engine, points, kRadius);
        (void)svc->snapshot();
        setup_s.push_back((now_us() - t0) / 1e6);
    };
    for (std::size_t r = 0; r < kSetupRepeats; ++r) set_up();
    const std::vector<Pair> pairs =
        draw_pairs(svc->snapshot()->udg, kQueryRound, config.seed + 1);
    if (pairs.empty()) throw std::runtime_error("no routable query pairs");

    const double closed_seconds = config.seconds / 3.0;
    const double open_seconds = config.seconds - closed_seconds;
    const std::size_t open_batches = std::max<std::size_t>(
        kMinOpenBatches, static_cast<std::size_t>(std::llround(open_seconds * spec.rate_per_s)));
    ScheduleConfig schedule_config;
    schedule_config.batches = spec.closed_cap + open_batches;
    schedule_config.moves_per_batch = kMovesPerBatch;
    schedule_config.step = kStep;
    schedule_config.churn = spec.churn;
    schedule_config.side = side_for(kServeNodes);
    schedule_config.seed = config.seed + 2;
    const std::vector<dynamic::UpdateBatch> schedule = make_schedule(points, schedule_config);

    // Closed loop: one batch in flight, each followed by one snapshot
    // (the copy every published version costs a serving deployment).
    Tracer writer(config.trace, 1);
    std::vector<double> apply_ms;
    std::vector<double> copy_ms;
    std::vector<double> enqueue_us;
    std::uint64_t rejected = 0;
    std::vector<double> cycle_rate;  ///< updates per second of each closed-loop cycle
    geom::reset_predicate_counters();
    service::ServiceStats before = svc->stats();
    service::SnapshotHandle latest;
    const double closed_start = now_ms();
    std::size_t b = 0;
    for (; b < spec.closed_cap &&
           (b < kMinClosedBatches || now_ms() < closed_start + closed_seconds * 1000.0);
         ++b) {
        writer.set_enabled(config.trace && b % 2 == 0);
        const int root = writer.begin("closed.batch", -1, b);
        const dynamic::UpdateBatch& batch = schedule[b];
        const double e0 = now_us();
        const int e_span = writer.begin("service.enqueue", root, b);
        if (!svc->enqueue(batch)) ++rejected;
        writer.end(e_span);
        const double d0 = now_us();
        enqueue_us.push_back(d0 - e0);
        const int d_span = writer.begin("service.drain", root, b);
        svc->drain();
        writer.end(d_span);
        const double d1 = now_us();
        service::SnapshotHandle fresh;
        {
            const ScopedSpan s(writer, "service.snapshot", root, b);
            fresh = svc->snapshot();
        }
        copy_ms.push_back((now_us() - d1) / 1000.0);
        // Held until the next copy replaces it and released by this
        // thread, as the reader does, so allocation follows its pattern.
        latest = std::move(fresh);
        const service::ServiceStats after = svc->stats();
        const double apply = after.apply_ms_total - before.apply_ms_total;
        apply_ms.push_back(apply);
        // The apply ran on the ingest worker inside the drain wait.
        writer.add("dynamic.apply", std::max(d0, d1 - apply * 1000.0), d1, d_span, b);
        writer.end(root);
        const auto updates =
            static_cast<double>(batch.moves.size() + batch.joins.size() + batch.leaves.size());
        cycle_rate.push_back(ratio(updates, (now_us() - e0) / 1e6));
        before = after;
    }
    const double closed_elapsed_ms = now_ms() - closed_start;
    latest.reset();
    const std::size_t closed_batches = b;
    const geom::PredicateCounters pred = geom::predicate_counters();
    const service::ServiceStats after_closed = before;

    // Open loop: batch k is due at start + k / rate whatever the
    // service's state; one reader queries the latest snapshot meanwhile.
    const double period_ms = 1000.0 / spec.rate_per_s;
    const std::uint64_t base_version = svc->snapshot()->version;
    OpenLoopLog log(open_batches, now_ms() + period_ms, period_ms);
    VersionTracker tracker(base_version, open_batches);
    std::atomic<std::size_t> visible{0};
    std::atomic<bool> stop{false};
    QueryLog queries;
    Tracer reader_tracer(config.trace, 2);
    std::exception_ptr reader_error;  // read only after the join
    std::atomic<bool> reader_failed{false};
    std::thread reader([&] {
        try {
            std::uint64_t router_version = static_cast<std::uint64_t>(-1);
            service::SnapshotHandle held;
            std::unique_ptr<routing::BackboneRouter> router;
            double round_start = now_us();
            for (std::size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
                const bool traced = config.trace && i % kReaderTraceEvery == 0;
                reader_tracer.set_enabled(traced);
                const double q0 = now_us();
                const int q_span = reader_tracer.begin("query", -1, i);
                service::SnapshotHandle snap;
                {
                    const ScopedSpan s(reader_tracer, "service.snapshot", q_span, i);
                    snap = svc->snapshot();
                }
                const double q1 = now_us();
                queries.snapshot_ms.add((q1 - q0) / 1000.0);
                const auto [first, last] = tracker.observe(snap->version);
                for (std::size_t k = first; k < last; ++k) log.record_visible(k, q1 / 1000.0);
                if (last > first) visible.store(last, std::memory_order_release);
                if (snap->version != router_version) {
                    const double rb0 = now_us();
                    const ScopedSpan s(reader_tracer, "routing.router_build", q_span, i);
                    router.reset();
                    held = snap;
                    router = std::make_unique<routing::BackboneRouter>(held->backbone, held->udg);
                    router_version = held->version;
                    queries.router_build_ms.push_back((now_us() - rb0) / 1000.0);
                }
                const Pair pair = pairs[i % pairs.size()];
                const double r0 = now_us();
                routing::RouteResult route;
                if (std::max(pair.first, pair.second) < held->udg.node_count()) {
                    const ScopedSpan s(reader_tracer, "routing.route", q_span, i);
                    route = router->route(pair.first, pair.second);
                }
                reader_tracer.end(q_span);
                const double r1 = now_us();
                queries.route_us.add(r1 - r0);
                queries.record((r1 - q0) / 1000.0, traced);
                if (std::max(pair.first, pair.second) < held->udg.node_count()) {
                    queries.score(route, held->udg, pair);
                } else {
                    ++queries.unroutable;
                }
                if ((i + 1) % pairs.size() == 0) {
                    const double now = now_us();
                    queries.round_ms.push_back((now - round_start) / 1000.0 /
                                               static_cast<double>(pairs.size()));
                    round_start = now;
                }
            }
        } catch (...) {
            reader_error = std::current_exception();
            reader_failed.store(true, std::memory_order_release);
        }
    });
    // Stops and joins the reader on every exit from this scope,
    // exceptions included, before the state it reads is destroyed.
    const StopAndJoin reader_guard{stop, reader};

    std::size_t backlog_max = 0;
    writer.set_enabled(config.trace);
    for (std::size_t k = 0; k < open_batches; ++k) {
        std::this_thread::sleep_until(time_at_us(log.due_ms(k) * 1000.0));
        const double sent = now_ms();
        log.record_send(k, sent);
        backlog_max = std::max(backlog_max, k - visible.load(std::memory_order_acquire));
        const int e_span = writer.begin("service.enqueue", -1, closed_batches + k);
        if (!svc->enqueue(schedule[closed_batches + k])) ++rejected;
        writer.end(e_span);
        enqueue_us.push_back((now_ms() - sent) * 1000.0);
    }
    svc->drain();
    // Let the reader observe the last version before it stops.
    const double wait_deadline = now_ms() + 30000.0;
    while (visible.load(std::memory_order_acquire) < open_batches && now_ms() < wait_deadline &&
           !reader_failed.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
    reader.join();
    if (reader_error) std::rethrow_exception(reader_error);
    const double rss = peak_rss_mb();
    for (std::size_t r = 0; r < kLateSetups; ++r) {
        const double t0 = now_us();
        engine::SpannerEngine late_engine(options);
        service::SpannerService late(late_engine, points, kRadius);
        (void)late.snapshot();
        setup_s.push_back((now_us() - t0) / 1e6);
    }
    const service::ServiceStats final_stats = svc->stats();
    const std::size_t total_batches = closed_batches + open_batches;

    // Output checks (untimed).
    Checks checks;
    const service::SnapshotHandle final_snap = svc->snapshot();
    {
        const double t0 = now_us();
        std::vector<geom::Point> expected = points;
        bool valid = true;
        for (std::size_t k = 0; k < total_batches; ++k) {
            valid = valid && apply_batch(expected, nullptr, schedule[k]);
        }
        const bool applied = final_stats.batches_applied == total_batches &&
                             final_stats.batches_quarantined == 0 && rejected == 0;
        checks.record("every_batch_applied", valid && applied && expected == final_snap->points,
                      (now_us() - t0) / 1e6,
                      "applied " + std::to_string(final_stats.batches_applied) + "/" +
                          std::to_string(total_batches) + ", quarantined " +
                          std::to_string(final_stats.batches_quarantined) + ", rejected " +
                          std::to_string(rejected));
    }
    engine::BuildResult reference;
    {
        const double t0 = now_us();
        reference = engine->build(final_snap->points, kRadius);
        const std::string diff = topology_diff(final_snap->udg, final_snap->backbone,
                                               reference.udg, reference.backbone);
        checks.record("snapshot_equals_rebuild", diff.empty(), (now_us() - t0) / 1e6,
                      diff.empty() ? "" : "first divergence: " + diff);
    }
    svc->stop();

    const std::vector<double> publish = log.publish_ms();
    const std::vector<double> lag = log.lag_ms();
    const std::uint64_t batch_failures = final_stats.batches_quarantined + rejected;
    result.attempted = total_batches + queries.query_ms.count() + checks.run;
    result.failed = batch_failures + queries.failed + checks.failed;
    result.correct = result.failed == 0;

    add_end_to_end(result, setup_s, quantile(publish, 0.5), queries,
                   quantile(cycle_rate, 0.5), rss);

    const double publish_p90 = quantile(publish, 0.9);
    const auto over_limit = std::count_if(publish.begin(), publish.end(),
                                          [&](double ms) { return ms > spec.publish_limit_ms; });
    std::printf("samples:\n");
    print_summary("setup_s", setup_s, "s");
    print_summary("publish_ms", publish, "ms");
    print_summary("query_ms", queries.query_ms, "ms");
    print_summary("query_round_ms (mean)", queries.round_ms, "ms");
    print_summary("updates_per_s (closed)", cycle_rate, "1/s");
    print_summary("snapshot_call_ms", queries.snapshot_ms, "ms");
    print_summary("route_us", queries.route_us, "us");
    print_summary("router_build_ms", queries.router_build_ms, "ms");
    print_summary("apply_ms (closed loop)", apply_ms, "ms");
    print_summary("snapshot_copy_ms (closed)", copy_ms, "ms");
    print_summary("generator_lag_ms", lag, "ms");
    std::printf("  publish_ms_p90 = %.3f ms (limit %.0f ms: %s, %ld of %zu over); "
                "%zu closed-loop batches in %.0f ms, %zu open-loop at %.2f/s\n",
                publish_p90, spec.publish_limit_ms,
                publish_p90 <= spec.publish_limit_ms ? "met" : "MISSED",
                static_cast<long>(over_limit), publish.size(), closed_batches,
                closed_elapsed_ms, open_batches, spec.rate_per_s);
    std::printf("  fallbacks %llu of %llu batches, unroutable queries %llu\n",
                static_cast<unsigned long long>(final_stats.fallbacks),
                static_cast<unsigned long long>(final_stats.batches_applied),
                static_cast<unsigned long long>(queries.unroutable));

    if (config.trace) {
        const double applied = static_cast<double>(final_stats.batches_applied);
        const double apply_p50 = quantile(apply_ms, 0.5);
        const double copy_p50 = quantile(copy_ms, 0.5);
        for (const StageName& stage : kStages) {
            add(result.per_layer, std::string(stage.span) + "_ms", 0.0, "ms");
        }
        for (const char* name : {"engine.other_ms", "engine.serial_ms", "engine.build_1t_ms"}) {
            add(result.per_layer, name, 0.0, "ms");
        }
        add(result.per_layer, "engine.speedup_4t", 0.0, "x");
        const double closed_pred = static_cast<double>(pred.total());
        add(result.per_layer, "geom.pred_calls",
            ratio(closed_pred, static_cast<double>(closed_batches)), "count");
        add(result.per_layer, "geom.pred_exact_share",
            ratio(static_cast<double>(pred.exact_total()), closed_pred), "ratio");
        add_work_counts(result.per_layer, reference);
        add(result.per_layer, "dynamic.apply_ms_p50", apply_p50, "ms");
        add(result.per_layer, "dynamic.apply_ms_p90", quantile(apply_ms, 0.9), "ms");
        add(result.per_layer, "service.snapshot_copy_ms_p50", copy_p50, "ms");
        add(result.per_layer, "service.queue_wait_ms_p50",
            quantile(publish, 0.5) - apply_p50 - copy_p50, "ms");
        add(result.per_layer, "dynamic.fallback_share",
            ratio(static_cast<double>(final_stats.fallbacks), applied), "ratio");
        add(result.per_layer, "dynamic.components_per_batch",
            ratio(static_cast<double>(final_stats.components_patched), applied), "ratio");
        add(result.per_layer, "dynamic.component_fallbacks",
            static_cast<double>(final_stats.component_fallbacks), "count");
        add(result.per_layer, "service.enqueue_us_p50", quantile(enqueue_us, 0.5), "us");
        add(result.per_layer, "service.snapshots_published",
            static_cast<double>(final_stats.snapshots_published), "count");
        add_routing_layer(result.per_layer, queries);
        add_query_shares(result.per_layer, queries);
        add(result.per_layer, "load.generator_lag_ms_p99", quantile(lag, 0.99), "ms");
        add(result.per_layer, "load.backlog_max", static_cast<double>(backlog_max), "count");
        add(result.per_layer, "trace.overhead_ms",
            queries.traced_query_ms.quantile(0.5) - queries.untraced_query_ms.quantile(0.5),
            "ms");
        const std::vector<const Tracer*> tracers = {&writer, &reader_tracer};
        add(result.per_layer, "trace.spans", static_cast<double>(span_count(tracers)), "count");

        // Publish accounting over the open loop, in means: apply and copy
        // as measured, queue wait and reader observation as remainder.
        const double open_apply_mean =
            ratio(final_stats.apply_ms_total - after_closed.apply_ms_total,
                  static_cast<double>(open_batches));
        std::printf("publish accounting (mean ms, open loop): apply %.3f + copy %.3f + "
                    "wait/other %.3f = %.3f\n",
                    open_apply_mean, mean(copy_ms),
                    mean(publish) - open_apply_mean - mean(copy_ms), mean(publish));
        print_self_times(tracers);
        export_trace(config, tracers);
    }
    return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> kNames = {"build_uniform", "build_clustered",
                                                    "serve_mobility", "serve_churn"};
    return kNames;
}

RunResult run_workload(const RunConfig& config) {
    if (config.workload == "build_uniform") return run_build(config, false);
    if (config.workload == "build_clustered") return run_build(config, true);
    if (config.workload == "serve_mobility") return run_serve(config, kMobility);
    if (config.workload == "serve_churn") return run_serve(config, kChurn);
    throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace perfbench
