// Per-layer metrics of the traced run, computed from the traced networks
// and their spans.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "probes.h"
#include "result_line.h"
#include "spans.h"
#include "stats.h"
#include "traced.h"

namespace perfbench {

/// What one traced run collected. mains[i], others[i] and untraced_s[i]
/// belong to the same seed.
struct TracedRun {
  std::size_t main_threads = 1;         ///< the workload's GA threads
  std::vector<TracedNetwork> mains;     ///< traced at main_threads
  std::vector<TracedNetwork> others;    ///< traced at the other count (1 or 4)
  std::vector<double> untraced_s;       ///< synthesize() wall, same seed
  std::vector<double> cpu_util;         ///< CPU / (wall x threads) per unit
  double ensemble_cpu_util = 0.0;       ///< ensemble workload only
  double ensemble_cpu_per_network = 0.0;
};

/// Every per-layer metric, in BENCHMARK.json order. Medians over seeds
/// unless the metric pools samples (cost.eval_us.*, ga.gen_ms.p50) or is a
/// ratio of sums (hit rates, ga.repeat_share). Metrics of a layer the
/// workload does not run (heuristics on city-n2000, ensemble.* on the
/// synthesize workloads) are 0.
std::vector<Metric> layer_metrics(const TracedRun& run,
                                  const BurnReading& burn_start,
                                  const BurnReading& burn_end,
                                  const FailureCount& failures);

/// Self time per layer (span category): for each main network, the sum of
/// its spans' self times by category; the median over networks.
std::map<std::string, double> self_time_by_layer(
    const SpanLog& log, const std::vector<TracedNetwork>& mains);

}  // namespace perfbench
