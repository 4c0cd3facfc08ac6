#include "trace.h"

#include <algorithm>
#include <sstream>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

void escape_into(std::ostringstream& out, const char* s) {
    for (; *s != '\0'; ++s) {
        if (*s == '"' || *s == '\\') out << '\\';
        out << *s;
    }
}

}  // namespace

double now_us() {
    return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch).count();
}

Clock::time_point time_at_us(double us) {
    return kEpoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(us));
}

Tracer::Tracer(bool enabled, int tid) : enabled_(enabled), tid_(tid) {
    if (enabled_) spans_.reserve(1 << 16);
}

int Tracer::begin(const char* name, int parent, std::uint64_t request) {
    if (!enabled_) return -1;
    const double t = now_us();
    spans_.push_back({name, t, t, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_us = now_us();
}

int Tracer::add(const char* name, double start_us, double end_us, int parent,
                std::uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_us, end_us, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::self_ms() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
        }
    }
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start_us;  // end of the covered prefix so far
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, s.end_us);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (s.end_us - s.start_us - covered) / 1000.0;
    }
    return self;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
    std::map<std::string, double> out;
    const std::vector<double> self = self_ms();
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
}

std::string chrome_trace_json(const std::vector<const Tracer*>& tracers) {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Tracer* tracer : tracers) {
        const auto& spans = tracer->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            out << (first ? "" : ",") << "\n{\"name\":\"";
            escape_into(out, s.name);
            out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tracer->tid()
                << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
                << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
                << ",\"request\":" << s.request << "}}";
            first = false;
        }
    }
    out << "\n]}\n";
    return out.str();
}

}  // namespace perfbench
