#include "net/multipath.h"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace cold {

const char* multipath_mode_name(MultipathMode mode) {
  switch (mode) {
    case MultipathMode::kEcmp:
      return "ecmp";
    case MultipathMode::kWcmp:
      return "wcmp";
    case MultipathMode::kOff:
      break;
  }
  return "off";
}

void accumulate_dag_loads(const Topology& g, const ShortestPathTree& tree,
                          const SpDag& dag, const CompressedTraffic& traffic,
                          NodeId s, MultipathMode mode, EdgeLoads& loads,
                          std::vector<double>& aggregate,
                          std::vector<double>& split, MultipathStats* stats) {
  // Reverse settle-order walk, like accumulate_tree_loads: every DAG
  // predecessor of a node has a strictly smaller composite key, hence an
  // earlier settle slot, so its aggregate is complete by the time it is
  // visited. Predecessors are scattered in ascending id order — one global
  // deterministic order regardless of solver or thread count.
  const std::size_t n = tree.dist.size();
  aggregate.assign(n, 0.0);
  const CompressedTraffic::RowSpan row = traffic.row_span(s);
  for (std::size_t k = 0; k < row.len; ++k) {
    aggregate[row.col[k]] = row.val[k];
  }
  for (std::size_t i = n; i-- > 1;) {  // skip the source (order[0])
    const NodeId t = tree.order[i];
    const std::uint32_t lo = dag.off[t];
    const std::size_t k = dag.off[t + 1] - lo;
    const double f = aggregate[t];
    if (k == 1) {
      // Sole predecessor — necessarily the tree parent. The add sequence is
      // byte-for-byte accumulate_tree_loads', which is what makes ECMP
      // bit-identical to the single-path engine on unique-shortest-path
      // topologies.
      const NodeId p = dag.pred[lo];
      assert(p == tree.parent[t]);
      loads.value[loads.index_of(p, t)] += f;
      aggregate[p] += f;
      continue;
    }
    assert(k >= 2);  // every reachable non-source node has >= 1 predecessor
    if (stats != nullptr) ++stats->branch_points;
    split.resize(k);
    std::size_t r = 0;  // remainder slot: first minimum-weight predecessor
    if (mode == MultipathMode::kWcmp) {
      // Weights are predecessor degrees — small exact integers, so their
      // sum is exact and the weight comparison below is deterministic.
      double wsum = 0.0;
      double wmin = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < k; ++j) {
        const double w =
            static_cast<double>(g.neighbors(dag.pred[lo + j]).size());
        split[j] = w;
        wsum += w;
        if (w < wmin) {
          wmin = w;
          r = j;
        }
      }
      for (std::size_t j = 0; j < k; ++j) {
        if (j != r) split[j] = (f * split[j]) / wsum;
      }
    } else {
      // ECMP: all weights equal, remainder to the first predecessor.
      const double share = f / static_cast<double>(k);
      for (std::size_t j = 1; j < k; ++j) split[j] = share;
    }
    // Bitwise conservation: the remainder share is f minus the sum of the
    // others (ascending order). The minimum weight is <= wsum/2 for k >= 2,
    // so partial stays within a factor-4 band of f and the subtraction is
    // exact (see the header) — partial + split[r] == f bit for bit.
    double partial = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (j != r) partial += split[j];
    }
    split[r] = f - partial;
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId p = dag.pred[lo + j];
      loads.value[loads.index_of(p, t)] += split[j];
      aggregate[p] += split[j];
    }
  }
}

namespace {

// Both multipath entry points: one sweep_sources pass whose in-order
// visitor extracts each source's DAG and scatters its row. kOff forwards to
// the single-path engine verbatim.
bool multipath_sweep(const char* who, const Topology& g,
                     const DistanceProvider& lengths,
                     const CompressedTraffic& traffic, MultipathMode mode,
                     EdgeLoads& loads, std::vector<ShortestPathTree>* retained,
                     RoutingWorkspace& ws, MultipathStats* stats,
                     SpAlgorithm algo, ThreadPool* pool) {
  if (mode == MultipathMode::kOff) {
    return retained != nullptr
               ? route_loads_retained(g, lengths, traffic, loads, *retained,
                                      ws, algo, pool)
               : route_loads(g, lengths, traffic, loads, ws, algo, pool);
  }
  const std::size_t n = g.num_nodes();
  if (traffic.rows() != n || traffic.cols() != n) {
    throw std::invalid_argument(std::string(who) +
                                ": traffic shape mismatch");
  }
  loads.build(g);
  const bool connected = sweep_sources(
      g, lengths, ws, algo, pool, retained,
      [&](NodeId s, const ShortestPathTree& tree) {
        extract_shortest_path_dag(g, lengths, tree, ws.dag);
        if (stats != nullptr) stats->dag_edges += ws.dag.pred.size();
        accumulate_dag_loads(g, tree, ws.dag, traffic, s, mode, loads,
                             ws.aggregate, ws.split, stats);
      });
  if (connected && stats != nullptr) ++stats->sweeps;
  return connected;
}

}  // namespace

bool route_loads_multipath(const Topology& g, const DistanceProvider& lengths,
                           const CompressedTraffic& traffic,
                           MultipathMode mode, EdgeLoads& loads,
                           RoutingWorkspace& ws, MultipathStats* stats,
                           SpAlgorithm algo, ThreadPool* pool) {
  return multipath_sweep("route_loads_multipath", g, lengths, traffic, mode,
                         loads, nullptr, ws, stats, algo, pool);
}

bool route_loads_multipath_retained(
    const Topology& g, const DistanceProvider& lengths,
    const CompressedTraffic& traffic, MultipathMode mode, EdgeLoads& loads,
    std::vector<ShortestPathTree>& trees, RoutingWorkspace& ws,
    MultipathStats* stats, SpAlgorithm algo, ThreadPool* pool) {
  return multipath_sweep("route_loads_multipath_retained", g, lengths,
                         traffic, mode, loads, &trees, ws, stats, algo, pool);
}

}  // namespace cold
