// Sample statistics for the benchmark's timings.
//
// Every timing is reported as a median plus the highest percentile that
// still has at least kTailSupport samples beyond it, together with the
// sample count, so a tail figure never rests on a handful of outliers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond it to be reported.
inline constexpr std::size_t kTailSupport = 10;

/// Linear-interpolation quantile (q in [0, 1]) of `samples`; 0 when
/// empty. `samples` need not be sorted.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// True when `count` samples leave at least kTailSupport beyond the
/// percentile `pct` (e.g. 99 needs 1000 samples).
[[nodiscard]] bool percentile_supported(std::size_t count, double pct);

/// The highest of {99.9, 99, 90, 75, 50} that percentile_supported
/// allows for `count` samples; 0 when not even the median qualifies.
[[nodiscard]] double highest_supported_percentile(std::size_t count);

/// One timing series: count, median, the supported tail and max.
struct Summary {
    std::size_t count = 0;
    double p50 = 0.0;
    double tail_pct = 0.0;  ///< highest_supported_percentile(count)
    double tail = 0.0;      ///< value at tail_pct (0 when unsupported)
    double max = 0.0;

    /// "p50=… p99=… max=… n=…" for the human-readable report.
    [[nodiscard]] std::string describe(int digits = 3) const;
};

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// Log-bucketed counter for series too long to keep as raw samples (the
/// serve reader answers about 10^5 queries a second): fixed memory, so
/// the benchmark's own bookkeeping does not grow the measured peak RSS
/// with the query count. Buckets are 1% wide over [1e-4, 1e7]; values
/// outside land in the end buckets.
class LogHistogram {
  public:
    LogHistogram();

    void add(double value);

    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    [[nodiscard]] double max() const noexcept { return max_; }
    /// Geometric midpoint of the bucket holding the q-quantile (within
    /// about 0.5% of the exact value inside the range); 0 when empty.
    [[nodiscard]] double quantile(double q) const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double max_ = 0.0;
};

[[nodiscard]] Summary summarize(const LogHistogram& histogram);

[[nodiscard]] double mean(const std::vector<double>& samples);

}  // namespace perfbench
