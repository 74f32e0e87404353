// Multipath (ECMP / WCMP) routing and link-load computation.
//
// The single-path engine (net/routing.h) pushes every demand down one
// shortest-path tree. The multipath engine routes over the *shortest-path
// DAG* instead: extract_shortest_path_dag (graph/shortest_paths.h) lists,
// for every node, all equal-cost predecessors under the composite
// (dist, hops, id) settle key — an epsilon-free, purely bitwise tie rule —
// and the scatter splits each node's flow across them:
//
//   * ECMP: equally — each of k predecessors carries flow/k;
//   * WCMP: proportional to downstream capacity, proxied by the
//     predecessor's degree (a well-connected upstream PoP can drain more) —
//     predecessor i carries flow * deg_i / sum(deg).
//
// Determinism and exactness:
//
//   * The scatter walks nodes in reverse settle order and predecessors in
//     ascending id order — one global, thread-count-independent operation
//     order, so loads are bit-identical across {1, N} threads and
//     {dense, sparse} solvers (the trees already are).
//   * Flow conservation is bitwise, not approximate: at each branch the
//     share of the first minimum-weight predecessor is computed as
//     f - partial (partial = the floating-point sum of the other shares,
//     ascending order) rather than by its own multiply. Every other weight
//     is >= the minimum, so partial lies in [f/2 - slack, f + slack]; both
//     operands of the subtraction are then multiples of ulp(partial) within
//     a factor-4 magnitude band, making f - partial exact (generalized
//     Sterbenz), and partial + (f - partial) reconstructs f bit for bit.
//   * A node with exactly one predecessor takes that flow undivided via
//     the same add sequence accumulate_tree_loads performs — so on any
//     topology whose shortest paths are all unique, ECMP (and WCMP) loads
//     are bit-identical to the single-path engine's. This is the
//     equivalence anchor the tests and the CI smoke step verify.
#pragma once

#include <cstdint>

#include "net/routing.h"

namespace cold {

/// Which load-splitting rule the routing engine applies.
enum class MultipathMode {
  kOff,   ///< single shortest path per demand (the classic engine)
  kEcmp,  ///< equal split across all equal-cost predecessors
  kWcmp,  ///< split weighted by predecessor degree (capacity proxy)
};

/// Short stable name for reports/CLI ("off", "ecmp", "wcmp").
const char* multipath_mode_name(MultipathMode mode);

/// Counters for multipath routing work, merged across Evaluator clones via
/// merge_stats() like DeltaStats/ResilienceStats.
struct MultipathStats {
  std::uint64_t sweeps = 0;         ///< full n-source multipath sweeps
  std::uint64_t branch_points = 0;  ///< (source, node) pairs with >= 2 preds
  std::uint64_t dag_edges = 0;      ///< predecessor links across all DAGs

  MultipathStats& operator+=(const MultipathStats& other) {
    sweeps += other.sweeps;
    branch_points += other.branch_points;
    dag_edges += other.dag_edges;
    return *this;
  }
};

/// The per-source half of route_loads_multipath: pushes row `s` of
/// `traffic` down the shortest-path DAG `dag` (extracted from `tree`, which
/// must span all n nodes), splitting at every branch per `mode` and
/// accumulating into `loads`. Exposed so the delta evaluation engine can
/// aggregate repaired trees through the same code path. `aggregate` and
/// `split` are caller scratch (resized here). `stats`, when non-null,
/// accrues branch_points/dag_edges for this source.
void accumulate_dag_loads(const Topology& g, const ShortestPathTree& tree,
                          const SpDag& dag, const CompressedTraffic& traffic,
                          NodeId s, MultipathMode mode, EdgeLoads& loads,
                          std::vector<double>& aggregate,
                          std::vector<double>& split,
                          MultipathStats* stats = nullptr);

/// Multipath form of route_loads: per-link loads under ECMP/WCMP routing of
/// `traffic` over `g`. kOff forwards to route_loads verbatim. Same contract
/// otherwise: loads rebuilt from `g`, false on disconnected input (loads
/// partial, unusable), one sweep_sources pass visiting sources in
/// increasing order — `pool` parallelizes the trees, never the DAG scatter,
/// so loads and stats are bit-identical with or without it.
bool route_loads_multipath(const Topology& g, const DistanceProvider& lengths,
                           const CompressedTraffic& traffic,
                           MultipathMode mode, EdgeLoads& loads,
                           RoutingWorkspace& ws,
                           MultipathStats* stats = nullptr,
                           SpAlgorithm algo = SpAlgorithm::kAuto,
                           ThreadPool* pool = nullptr);

/// route_loads_multipath, but each source's tree is computed into (and left
/// in) `trees[s]` for delta-engine retention — the multipath analogue of
/// route_loads_retained. kOff forwards to route_loads_retained.
bool route_loads_multipath_retained(
    const Topology& g, const DistanceProvider& lengths,
    const CompressedTraffic& traffic, MultipathMode mode, EdgeLoads& loads,
    std::vector<ShortestPathTree>& trees, RoutingWorkspace& ws,
    MultipathStats* stats = nullptr, SpAlgorithm algo = SpAlgorithm::kAuto,
    ThreadPool* pool = nullptr);

}  // namespace cold
