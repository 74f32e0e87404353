// The traced run: the synthesis pipeline recomposed from the library's
// public calls, with a span around every call into a layer.
//
//   1. generate_context(cfg.context, Rng(seed, 0))         core/context
//   2. Evaluator construction                               cost
//   3. run_hub_heuristic per all_hub_strategies(), Rng(seed, 1)  heuristics
//   4. run_ga on a timing Objective wrapping EvaluatorObjective  ga, cost
//   5. evaluate(best)                                       cost
//   6. build_network                                        net
//
// Then shortest_path_tree from every source of the winner (graph). The
// timing objective forwards clone, merge_from, charge_duplicates,
// set_parent_hint and delta_stats to the wrapped objective, so GA
// scheduling and affinity behave exactly as in Synthesizer::synthesize;
// the caller checks that the result is bit-identical to it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/synthesizer.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct HeuristicStep {
  std::string name;  ///< snake_case strategy name, e.g. "random_greedy"
  double s = 0.0;
  std::size_t evals = 0;
};

struct TracedNetwork {
  std::uint64_t seed = 0;
  std::size_t ga_threads = 1;
  std::uint32_t network_id = 0;

  cold::GaResult ga;
  std::vector<cold::HeuristicResult> heuristics;
  double assembled_cost = 0.0;  ///< evaluate(best).total()
  bool network_connected = false;

  // Phase wall times, seconds.
  double wall_s = 0.0;  ///< steps 1-6
  double context_s = 0.0;
  double evaluator_s = 0.0;
  double heuristics_s = 0.0;
  double ga_s = 0.0;
  double evaluate_s = 0.0;
  double build_s = 0.0;

  std::vector<HeuristicStep> heuristic_steps;
  std::size_t heuristic_evals = 0;

  // GA internals, from the generation observer and the timing objective.
  std::vector<double> gen_ms;   ///< wall time of each generation
  std::vector<double> cost_us;  ///< every GA cost() call
  double scoring_s = 0.0;       ///< time inside cost(), summed over workers
  double pass_wall_s = 0.0;     ///< wall time of the scoring passes
  std::size_t repeat_calls = 0; ///< cost() on an edge set already scored

  // Evaluator counters after the pipeline (worker clones merged).
  cold::EvalCacheStats cache;
  std::size_t dedup_skipped = 0;
  cold::DeltaStats delta;

  std::size_t traffic_nnz = 0;
  double context_bytes = 0.0;  ///< computed from the context's arrays

  double sssp_us = 0.0;      ///< per source, over the winner
  double relax_per_s = 0.0;  ///< 2m relaxations per source
};

/// Runs the recomposed pipeline for `seed` with `ga_threads` GA scoring
/// threads, recording spans into `log` under `network_id`.
TracedNetwork run_traced(const Workload& w, std::uint64_t seed,
                         std::size_t ga_threads, SpanLog& log,
                         std::uint32_t network_id);

}  // namespace perfbench
