#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median: no samples");
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  const double upper = xs[mid];
  if (xs.size() % 2 == 1) return upper;
  const double lower = *std::max_element(xs.begin(), xs.begin() + mid);
  return (lower + upper) / 2.0;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("quartiles: no samples");
  std::sort(xs.begin(), xs.end());
  const std::size_t ld = xs.size();
  if (ld == 1) return {xs[0], xs[0], xs[0]};
  // statistics.quantiles, method="exclusive", n=4: cut point i sits at
  // position i*(ld+1)/4 (1-based), clamped to [1, ld-1] and interpolated.
  const std::size_t m = ld + 1;
  double cut[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p must be in (0, 100]");
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const std::size_t rank = n - samples_beyond(n, p);  // 1-based
  return xs[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Nearest rank: ceil(p/100 * n). Computed in tenths of a percent so the
  // candidate percentiles (99.9, 99, ...) are exact integers.
  const auto tenths = static_cast<std::size_t>(std::llround(p * 10.0));
  const std::size_t rank = (tenths * n + 999) / 1000;
  return n - std::min(rank, n);
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.p50 = median(xs);
  s.tail_pct = tail_percentile(xs.size());
  s.tail = s.tail_pct > 0.0 ? percentile(xs, s.tail_pct) : s.p50;
  return s;
}

}  // namespace perfbench
