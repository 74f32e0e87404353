// Greedy hub-growth heuristics (paper §5).
//
// Each heuristic starts from the best single-hub star (every other PoP a
// leaf of the hub) and converts leaves to hubs one at a time while doing so
// reduces network cost; remaining leaves always attach to their closest hub.
// The variants differ in how a new hub is wired to the existing hubs:
//
//   RandomGreedy      iterate PoPs in random permutations; greedy links
//   Complete          try every candidate; hubs form a clique
//   Mst               try every candidate; hubs connected by an MST
//   GreedyAttachment  try every candidate; greedy links per new hub
//
// These serve two roles, exactly as in the paper: (a) competitors used to
// validate the GA (Fig 3), and (b) seed topologies for the "initialized GA",
// which is then guaranteed to be at least as good as every heuristic.
//
// Parallel scoring: with num_threads > 1 each greedy step scores its
// candidates concurrently on Evaluator::clone()s (worker 0 is the caller's
// evaluator) and then picks the winner serially, lowest index first on
// ties. RandomGreedy scores windows of upcoming candidates from the current
// state, accepts the first improving one in permutation order and resumes
// right after it; the evaluations it scored past that one are refunded. So
// results, costs and evaluations() are bit-identical to the serial walk at
// any thread count. One thread runs the serial walk inline: no pool, no
// clones.
#pragma once

#include <string>
#include <vector>

#include "cost/evaluator.h"
#include "graph/topology.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace cold {

enum class HubStrategy {
  kRandomGreedy,
  kComplete,
  kMst,
  kGreedyAttachment,
};

/// All strategies, in a stable order (for sweeps and reporting).
std::vector<HubStrategy> all_hub_strategies();

std::string to_string(HubStrategy s);

struct HubHeuristicOptions {
  /// Number of random permutations tried by RandomGreedy.
  std::size_t num_permutations = 10;
};

struct HeuristicResult {
  Topology topology;
  double cost = 0.0;
  std::string name;
  std::uint64_t wall_ns = 0;  ///< wall-clock spent computing this result
};

/// Runs one heuristic against the evaluator's context. The returned
/// topology is always connected; its cost is finite. `num_threads` counts
/// the scoring threads, caller included; 0 or 1 scores serially.
HeuristicResult run_hub_heuristic(Evaluator& eval, HubStrategy strategy,
                                  Rng& rng,
                                  const HubHeuristicOptions& options = {},
                                  std::size_t num_threads = 1);

/// Runs every heuristic; results are in all_hub_strategies() order. The
/// optional observer receives one HeuristicDone per heuristic; the optional
/// stop condition is checked between heuristics (a stopped sweep returns
/// the results computed so far) and charged with their evaluations. One
/// thread pool and one set of evaluator clones serve all four heuristics.
std::vector<HeuristicResult> run_all_heuristics(
    Evaluator& eval, Rng& rng, const HubHeuristicOptions& options = {},
    RunObserver* observer = nullptr, StopCondition* stop = nullptr,
    std::size_t num_threads = 1);

/// Builds the "hub set" topology used by all heuristics: the given hubs are
/// wired with `hub_edges` (edges between hub node ids) and every non-hub
/// attaches to its closest hub by distance. Exposed for testing.
Topology build_hub_topology(std::size_t n, const std::vector<NodeId>& hubs,
                            const std::vector<Edge>& hub_edges,
                            const DistanceProvider& lengths);

}  // namespace cold
