#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

bool percentile_supported(std::size_t count, double pct) {
    // Samples strictly beyond the percentile: count * (1 - pct/100),
    // compared in integers scaled by 1000 to dodge rounding at p99.9.
    const auto scaled_pct = static_cast<long long>(std::llround(pct * 10.0));
    const long long beyond_x1000 =
        static_cast<long long>(count) * (1000 - scaled_pct);
    return beyond_x1000 >= static_cast<long long>(kTailSupport) * 1000;
}

double highest_supported_percentile(std::size_t count) {
    for (const double pct : {99.9, 99.0, 90.0, 75.0, 50.0}) {
        if (percentile_supported(count, pct)) return pct;
    }
    return 0.0;
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

Summary summarize(const std::vector<double>& samples) {
    Summary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    s.p50 = quantile(samples, 0.5);
    s.tail_pct = highest_supported_percentile(s.count);
    s.tail = s.tail_pct > 0.0 ? quantile(samples, s.tail_pct / 100.0) : 0.0;
    s.max = *std::max_element(samples.begin(), samples.end());
    return s;
}

namespace {

constexpr double kHistMin = 1e-4;
constexpr double kHistMax = 1e7;
const double kLogStep = std::log(1.01);
const auto kHistBuckets =
    static_cast<std::size_t>(std::ceil(std::log(kHistMax / kHistMin) / kLogStep)) + 1;

}  // namespace

LogHistogram::LogHistogram() : buckets_(kHistBuckets, 0) {}

void LogHistogram::add(double value) {
    const double clamped = std::clamp(value, kHistMin, kHistMax);
    const auto bucket = static_cast<std::size_t>(std::log(clamped / kHistMin) / kLogStep);
    ++buckets_[std::min(bucket, buckets_.size() - 1)];
    ++count_;
    sum_ += value;
    max_ = count_ == 1 ? value : std::max(max_, value);
}

double LogHistogram::quantile(double q) const {
    if (count_ == 0) return 0.0;
    // Nearest rank: the smallest bucket whose cumulative count reaches it.
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (seen >= std::max<std::uint64_t>(rank, 1)) {
            return kHistMin * std::exp((static_cast<double>(b) + 0.5) * kLogStep);
        }
    }
    return max_;
}

Summary summarize(const LogHistogram& histogram) {
    Summary s;
    s.count = histogram.count();
    if (s.count == 0) return s;
    s.p50 = histogram.quantile(0.5);
    s.tail_pct = highest_supported_percentile(s.count);
    s.tail = s.tail_pct > 0.0 ? histogram.quantile(s.tail_pct / 100.0) : 0.0;
    s.max = histogram.max();
    return s;
}

std::string Summary::describe(int digits) const {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(digits);
    out << "p50=" << p50;
    if (tail_pct > 50.0) {
        std::ostringstream pct;
        pct << tail_pct;  // default format: "99", "99.9"
        out << " p" << pct.str() << "=" << tail;
    }
    out << " max=" << max << " n=" << count;
    return out.str();
}

}  // namespace perfbench
