// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call it
// makes into a library layer (engine build, service enqueue/drain/
// snapshot, router build, route). Each span has a name, a start and an
// end on one steady clock, the span that caused it and a request id
// shared by the spans of one operation. Stage rows the engine already
// reports (core::PipelineStats) are added as synthesized child spans so
// a build's self time is exactly the part no stage row covers.
//
// One Tracer per recording thread: recording takes no lock. Export
// merges all tracers into one Chrome trace-event JSON document
// (chrome://tracing, Perfetto) when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the process-wide trace epoch.
[[nodiscard]] double now_us();

/// Milliseconds since the same epoch.
[[nodiscard]] inline double now_ms() { return now_us() / 1000.0; }

/// The clock instant `us` microseconds after the epoch.
[[nodiscard]] Clock::time_point time_at_us(double us);

struct Span {
    const char* name = "";  ///< static string: a layer call or stage name
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;        ///< index into the same tracer; -1 = root
    std::uint64_t request = 0;
};

class Tracer {
  public:
    /// `tid` labels this tracer's spans in the exported trace.
    Tracer(bool enabled, int tid);

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    /// Turns recording on or off for the following spans (used to
    /// alternate traced and untraced operations in one run).
    void set_enabled(bool on) noexcept { enabled_ = on; }

    /// Opens a span; returns its index, or -1 when disabled.
    int begin(const char* name, int parent, std::uint64_t request);
    void end(int span);
    /// Records a span whose interval is already known; -1 when disabled.
    int add(const char* name, double start_us, double end_us, int parent,
            std::uint64_t request);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    [[nodiscard]] int tid() const noexcept { return tid_; }

    /// Per span: its duration minus the union of its children's
    /// intervals (clipped to the span), in milliseconds.
    [[nodiscard]] std::vector<double> self_ms() const;

    /// Sum of self time by span name, in milliseconds.
    [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  private:
    bool enabled_;
    int tid_;
    std::vector<Span> spans_;
};

/// RAII span; no-op when the tracer is disabled.
class ScopedSpan {
  public:
    ScopedSpan(Tracer& tracer, const char* name, int parent, std::uint64_t request)
        : tracer_(tracer), index_(tracer.begin(name, parent, request)) {}
    ~ScopedSpan() { tracer_.end(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int index() const noexcept { return index_; }

  private:
    Tracer& tracer_;
    int index_;
};

/// Chrome trace-event JSON ("X" complete events, µs) of every tracer.
[[nodiscard]] std::string chrome_trace_json(const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
