// Order statistics for the benchmark's reported numbers.
//
// Every timing is reported as a median plus the highest percentile that
// still has at least ten samples beyond it, with the sample count stated.
// quartiles() reproduces Python's statistics.quantiles(data, n=4) (the
// default "exclusive" method), the same cut points perfbench/spread.py
// judges run-to-run spread by.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the two middle values for an even count).
/// Throws std::invalid_argument when `xs` is empty.
double median(std::vector<double> xs);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Python's statistics.quantiles(xs, n=4, method="exclusive"). Needs at
/// least one sample (one sample yields three equal cut points).
Quartiles quartiles(std::vector<double> xs);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100].
double percentile(std::vector<double> xs, double p);

/// Samples ranked strictly beyond the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile among 99.9, 99, 95, 90, 75 and 50 that leaves at
/// least 10 samples beyond it, or 0 when even the median does not (fewer
/// than 20 samples).
double tail_percentile(std::size_t n);

/// A summarized timing: median, the tail percentile and its value, count.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< 0 when no percentile qualifies
  double tail = 0.0;      ///< equals p50 when tail_pct == 0
};

Summary summarize(const std::vector<double>& xs);

/// Networks that threw or failed a check, over networks attempted.
struct FailureCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Counts `n` attempts that all share one outcome (an ensemble call).
  void record_many(std::size_t n, bool ok) {
    attempted += n;
    if (!ok) failed += n;
  }
  double fraction() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
