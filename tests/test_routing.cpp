#include "net/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>

#include "baselines/erdos_renyi.h"
#include "geom/distance.h"
#include "geom/point_process.h"
#include "graph/algorithms.h"
#include "net/multipath.h"
#include "traffic/gravity.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cold {
namespace {

TEST(RouteLoads, PathGraphAccumulates) {
  // Path 0-1-2 with unit demands between all pairs. Link (0,1) carries
  // demands 0<->1 and 0<->2 in both directions: 4 units.
  Topology g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  Matrix<double> traffic = Matrix<double>::square(3, 1.0);
  for (int i = 0; i < 3; ++i) traffic(i, i) = 0.0;
  EdgeLoads edge_loads;
  RoutingWorkspace ws;
  ASSERT_TRUE(route_loads(g, len, traffic, edge_loads, ws));
  Matrix<double> loads;
  edge_loads.scatter(loads);
  EXPECT_DOUBLE_EQ(loads(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(loads(1, 0), loads(0, 1));  // symmetric
  EXPECT_DOUBLE_EQ(loads(0, 2), 0.0);          // no such link
}

TEST(RouteLoads, DisconnectedReturnsFalse) {
  Topology g(3);
  g.add_edge(0, 1);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  Matrix<double> traffic = gravity_matrix({1.0, 1.0, 1.0});
  EdgeLoads loads;
  RoutingWorkspace ws;
  EXPECT_FALSE(route_loads(g, len, traffic, loads, ws));
}

TEST(RouteLoads, AgreesWithExplicitPathAccumulation) {
  // Cross-check the O(n+m) tree aggregation against brute-force per-pair
  // path walks on random geometric instances.
  Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 12;
    const auto pts = UniformProcess().sample(n, Rectangle(), rng);
    const auto len = distance_matrix(pts);
    Topology g = erdos_renyi_gnp(n, 0.3, rng);
    connect_components(g, len);
    std::vector<double> pops;
    for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
    const auto traffic = gravity_matrix(pops);

    EdgeLoads edge_loads;
    RoutingWorkspace ws;
    ASSERT_TRUE(route_loads(g, len, traffic, edge_loads, ws));
    Matrix<double> loads;
    edge_loads.scatter(loads);

    Matrix<double> expected = Matrix<double>::square(n, 0.0);
    for (NodeId s = 0; s < n; ++s) {
      const auto tree = shortest_path_tree(g, len, s);
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        const auto path = tree.path_to(t);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          expected(path[i], path[i + 1]) += traffic(s, t);
          expected(path[i + 1], path[i]) += traffic(s, t);
        }
      }
    }
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        EXPECT_NEAR(loads(i, j), expected(i, j), 1e-6);
      }
    }
  }
}

TEST(RouteLoads, TotalLoadLengthEqualsDemandWeightedLength) {
  // sum_links l_i * w_i must equal sum_pairs t(s,t) * dist(s,t) (eq. 1).
  Rng rng(2);
  const std::size_t n = 15;
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  const auto len = distance_matrix(pts);
  Topology g = erdos_renyi_gnp(n, 0.3, rng);
  connect_components(g, len);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  const auto traffic = gravity_matrix(pops);

  EdgeLoads edge_loads;
  RoutingWorkspace ws;
  ASSERT_TRUE(route_loads(g, len, traffic, edge_loads, ws));
  Matrix<double> loads;
  edge_loads.scatter(loads);
  double lhs = 0.0;
  for (const Edge& e : g.edges()) lhs += len(e.u, e.v) * loads(e.u, e.v);
  const double rhs = total_demand_weighted_length(g, len, traffic);
  EXPECT_NEAR(lhs, rhs, 1e-6 * rhs);
}

TEST(TotalDemandWeightedLength, InfiniteWhenDisconnected) {
  Topology g(3);
  g.add_edge(0, 1);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  const auto traffic = gravity_matrix({1.0, 1.0, 1.0});
  EXPECT_EQ(total_demand_weighted_length(g, len, traffic),
            std::numeric_limits<double>::infinity());
}

TEST(RoutingMatrix, NextHopsFollowShortestPaths) {
  Topology g(4);  // square with one diagonal: 0-1, 1-2, 2-3, 3-0, 0-2
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(0, 2);
  Matrix<double> len = Matrix<double>::square(4, 1.0);
  len(0, 2) = len(2, 0) = 1.2;  // diagonal slightly longer than 1 hop
  const auto next = routing_matrix(g, len);
  EXPECT_EQ(next(0, 0), 0u);
  EXPECT_EQ(next(0, 2), 2u);  // direct (1.2) beats 2 hops (2.0)
  EXPECT_EQ(next(1, 3), 0u);  // 1-0-3 (2.0) vs 1-2-3 (2.0): tie -> lower parent id
  const auto path = route_path(next, 1, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 0u);
}

// Property test: on ~100 random connected geometric graphs, the loads the
// tree aggregation reports equal what walking every demand's next-hop route
// (routing_matrix + route_path) deposits on each link — for both
// shortest-path solvers, which must also agree with each other exactly.
TEST(RouteLoads, MatchesRoutePathWalksOnRandomGraphs) {
  Rng rng(42);
  RoutingWorkspace ws;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 6 + rng.uniform_index(19);
    const auto pts = UniformProcess().sample(n, Rectangle(), rng);
    const auto len = distance_matrix(pts);
    Topology g = erdos_renyi_gnp(n, 0.05 + 0.4 * rng.uniform(), rng);
    connect_components(g, len);
    std::vector<double> pops;
    for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
    const auto traffic = gravity_matrix(pops);

    EdgeLoads by_dense, by_sparse;
    ASSERT_TRUE(route_loads(g, len, traffic, by_dense, ws,
                            SpAlgorithm::kDense));
    ASSERT_TRUE(route_loads(g, len, traffic, by_sparse, ws,
                            SpAlgorithm::kSparse));
    Matrix<double> loads_dense, loads_sparse;
    by_dense.scatter(loads_dense);
    by_sparse.scatter(loads_sparse);
    const auto next = routing_matrix(g, len, ws);

    Matrix<double> walked = Matrix<double>::square(n, 0.0);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        const auto path = route_path(next, s, t);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          walked(path[i], path[i + 1]) += traffic(s, t);
          walked(path[i + 1], path[i]) += traffic(s, t);
        }
      }
    }
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        // Both solvers pick identical trees, so their loads are bitwise
        // equal; the walk accumulates in a different order, so compare it
        // with a tolerance.
        ASSERT_EQ(loads_dense(i, j), loads_sparse(i, j));
        ASSERT_NEAR(loads_dense(i, j), walked(i, j),
                    1e-9 * std::max(1.0, walked(i, j)));
      }
    }
  }
}

TEST(RoutingWorkspaceOverloads, MatchAllocatingWrappers) {
  Rng rng(3);
  const std::size_t n = 14;
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  const auto len = distance_matrix(pts);
  Topology g = erdos_renyi_gnp(n, 0.25, rng);
  connect_components(g, len);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  const auto traffic = gravity_matrix(pops);

  RoutingWorkspace ws;
  // Same workspace reused across calls and entry points: results must not
  // depend on leftover scratch state.
  EXPECT_EQ(total_demand_weighted_length(g, len, traffic, ws),
            total_demand_weighted_length(g, len, traffic));
  const auto with_ws = routing_matrix(g, len, ws);
  const auto wrapper = routing_matrix(g, len);
  EXPECT_TRUE(with_ws == wrapper);
  EXPECT_EQ(total_demand_weighted_length(g, len, traffic, ws),
            total_demand_weighted_length(g, len, traffic, ws,
                                         SpAlgorithm::kSparse));
}

TEST(RoutingMatrix, ThrowsOnDisconnected) {
  Topology g(3);
  g.add_edge(0, 1);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  EXPECT_THROW(routing_matrix(g, len), std::invalid_argument);
}

TEST(RoutePath, ValidatesNodes) {
  Matrix<NodeId> next = Matrix<NodeId>::square(2, 0);
  next(0, 0) = 0;
  next(1, 1) = 1;
  next(0, 1) = 1;
  next(1, 0) = 0;
  EXPECT_THROW(route_path(next, 0, 5), std::out_of_range);
  const auto p = route_path(next, 0, 1);
  ASSERT_EQ(p.size(), 2u);
}

// ---------------------------------------------------------------------------
// Pooled sweeps: sweep_sources with a ThreadPool must reproduce the serial
// sweep bit for bit — loads, retained trees, multipath counters, and the
// disconnected verdict — at every pool size.

/// Restores both dense-view auto thresholds (Topology and DistanceProvider)
/// on scope exit, so a failing test cannot leak a forced backend.
class MatrixFreeGuard {
 public:
  MatrixFreeGuard()
      : topology_(Topology::dense_auto_threshold()),
        provider_(DistanceProvider::dense_auto_threshold()) {
    Topology::set_dense_auto_threshold(0);
    DistanceProvider::set_dense_auto_threshold(0);
  }
  ~MatrixFreeGuard() {
    Topology::set_dense_auto_threshold(topology_);
    DistanceProvider::set_dense_auto_threshold(provider_);
  }
  MatrixFreeGuard(const MatrixFreeGuard&) = delete;
  MatrixFreeGuard& operator=(const MatrixFreeGuard&) = delete;

 private:
  std::size_t topology_;
  std::size_t provider_;
};

struct SweepInstance {
  std::vector<Point> points;
  std::vector<Edge> edges;
  CompressedTraffic traffic;
};

/// A connected random geometric instance: G(n, p) stitched by nearest links.
SweepInstance random_instance(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  SweepInstance inst;
  inst.points = UniformProcess().sample(n, Rectangle(), rng);
  const auto len = distance_matrix(inst.points);
  Topology g = erdos_renyi_gnp(n, p, rng);
  connect_components(g, len);
  inst.edges = g.edges();
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  inst.traffic = CompressedTraffic(gravity_matrix(pops));
  return inst;
}

/// A side x side unit lattice with every other cell's diagonal: integer
/// coordinates make many equal-cost paths, so ECMP and WCMP really split.
SweepInstance lattice_instance(std::size_t side) {
  SweepInstance inst;
  const auto id = [side](std::size_t r, std::size_t c) { return r * side + c; };
  std::vector<double> pops;
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      inst.points.push_back({static_cast<double>(c), static_cast<double>(r)});
      pops.push_back(1.0 + static_cast<double>((r * 7 + c * 3) % 5));
      if (c + 1 < side) inst.edges.push_back(make_edge(id(r, c), id(r, c + 1)));
      if (r + 1 < side) inst.edges.push_back(make_edge(id(r, c), id(r + 1, c)));
      if (r + 1 < side && c + 1 < side && (r + c) % 2 == 0) {
        inst.edges.push_back(make_edge(id(r, c), id(r + 1, c + 1)));
      }
    }
  }
  inst.traffic = CompressedTraffic(gravity_matrix(pops));
  return inst;
}

struct SweepRun {
  bool ok = false;
  EdgeLoads loads;
  std::vector<ShortestPathTree> trees;
  MultipathStats stats;
};

SweepRun run_sweep(const Topology& g, const DistanceProvider& len,
                   const CompressedTraffic& traffic, MultipathMode mode,
                   bool retained, SpAlgorithm algo, ThreadPool* pool,
                   std::size_t max_block_bytes =
                       RoutingWorkspace::kDefaultMaxBlockBytes) {
  SweepRun r;
  RoutingWorkspace ws;
  ws.max_block_bytes = max_block_bytes;
  r.ok = retained ? route_loads_multipath_retained(g, len, traffic, mode,
                                                   r.loads, r.trees, ws,
                                                   &r.stats, algo, pool)
                  : route_loads_multipath(g, len, traffic, mode, r.loads, ws,
                                          &r.stats, algo, pool);
  return r;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

void expect_same_sweep(const SweepRun& serial, const SweepRun& pooled) {
  ASSERT_EQ(serial.ok, pooled.ok);
  EXPECT_EQ(bits(serial.loads.value), bits(pooled.loads.value));
  ASSERT_EQ(serial.trees.size(), pooled.trees.size());
  for (std::size_t s = 0; s < serial.trees.size(); ++s) {
    const ShortestPathTree& a = serial.trees[s];
    const ShortestPathTree& b = pooled.trees[s];
    EXPECT_EQ(bits(a.dist), bits(b.dist)) << "source " << s;
    EXPECT_EQ(a.hops, b.hops) << "source " << s;
    EXPECT_EQ(a.parent, b.parent) << "source " << s;
    EXPECT_EQ(a.order, b.order) << "source " << s;
  }
  EXPECT_EQ(serial.stats.sweeps, pooled.stats.sweeps);
  EXPECT_EQ(serial.stats.branch_points, pooled.stats.branch_points);
  EXPECT_EQ(serial.stats.dag_edges, pooled.stats.dag_edges);
}

/// Every routing mode, retained or not, serial vs pools of 2, 4 and 8.
void check_pooled_modes(const Topology& g, const DistanceProvider& len,
                        const CompressedTraffic& traffic, SpAlgorithm algo,
                        std::size_t max_block_bytes =
                            RoutingWorkspace::kDefaultMaxBlockBytes) {
  ThreadPool pool2(2), pool4(4), pool8(8);
  for (const MultipathMode mode :
       {MultipathMode::kOff, MultipathMode::kEcmp, MultipathMode::kWcmp}) {
    for (const bool retained : {false, true}) {
      const SweepRun serial = run_sweep(g, len, traffic, mode, retained, algo,
                                        nullptr, max_block_bytes);
      ASSERT_TRUE(serial.ok);
      for (ThreadPool* pool : {&pool2, &pool4, &pool8}) {
        SCOPED_TRACE(testing::Message()
                     << "mode " << multipath_mode_name(mode) << " retained "
                     << retained << " threads " << pool->size());
        expect_same_sweep(serial, run_sweep(g, len, traffic, mode, retained,
                                            algo, pool, max_block_bytes));
      }
    }
  }
}

TEST(PooledSweepExactness, DenseKernel) {
  const SweepInstance inst = random_instance(40, 0.15, 101);
  const Topology g = Topology::from_edges(40, inst.edges);
  const DistanceProvider len = DistanceProvider::from_points(inst.points);
  ASSERT_TRUE(g.has_dense_view());
  ASSERT_TRUE(len.has_dense());
  ASSERT_EQ(resolve_sp_algorithm(g, len, SpAlgorithm::kDense),
            SpAlgorithm::kDense);
  check_pooled_modes(g, len, inst.traffic, SpAlgorithm::kDense);
}

TEST(PooledSweepExactness, SparseKernel) {
  const SweepInstance inst = random_instance(120, 0.03, 102);
  const Topology g = Topology::from_edges(120, inst.edges);
  const DistanceProvider len = DistanceProvider::from_points(inst.points);
  check_pooled_modes(g, len, inst.traffic, SpAlgorithm::kSparse);
}

TEST(PooledSweepExactness, MatrixFreeDistances) {
  const SweepInstance inst = random_instance(120, 0.03, 103);
  MatrixFreeGuard matrix_free;
  const Topology g = Topology::from_edges(120, inst.edges);
  const DistanceProvider len = DistanceProvider::from_points(inst.points);
  ASSERT_FALSE(g.has_dense_view());
  ASSERT_FALSE(len.has_dense());
  check_pooled_modes(g, len, inst.traffic, SpAlgorithm::kAuto);
}

// Integer lattice lengths tie everywhere: the multipath scatter really
// branches, so its per-source order is what the pool must preserve.
TEST(PooledSweepExactness, EqualCostTiesSplitIdentically) {
  const SweepInstance inst = lattice_instance(9);
  const Topology g = Topology::from_edges(81, inst.edges);
  const DistanceProvider len = DistanceProvider::from_points(inst.points);
  const SweepRun ecmp = run_sweep(g, len, inst.traffic, MultipathMode::kEcmp,
                                  false, SpAlgorithm::kAuto, nullptr);
  ASSERT_TRUE(ecmp.ok);
  EXPECT_GT(ecmp.stats.branch_points, 0u);
  check_pooled_modes(g, len, inst.traffic, SpAlgorithm::kAuto);
}

TEST(PooledSweepExactness, DisconnectedReturnsFalseInBothModes) {
  SweepInstance inst = random_instance(30, 0.2, 104);
  // Two copies side by side with no link between them.
  std::vector<Edge> edges = inst.edges;
  for (const Edge& e : inst.edges) edges.push_back(make_edge(e.u + 30, e.v + 30));
  std::vector<Point> points = inst.points;
  for (const Point& p : inst.points) points.push_back({p.x + 2.0, p.y});
  std::vector<double> pops(60, 1.0);
  const CompressedTraffic traffic(gravity_matrix(pops));
  const Topology g = Topology::from_edges(60, edges);
  const DistanceProvider len = DistanceProvider::from_points(points);
  ThreadPool pool(4);
  for (const MultipathMode mode :
       {MultipathMode::kOff, MultipathMode::kEcmp, MultipathMode::kWcmp}) {
    for (const bool retained : {false, true}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const SweepRun r = run_sweep(g, len, traffic, mode, retained,
                                     SpAlgorithm::kAuto, p);
        EXPECT_FALSE(r.ok) << multipath_mode_name(mode) << " retained "
                           << retained << " pooled " << (p != nullptr);
        EXPECT_EQ(r.stats.sweeps, 0u);
      }
    }
  }
  RoutingWorkspace ws;
  EXPECT_THROW(routing_matrix(g, len, ws, SpAlgorithm::kAuto, &pool),
               std::invalid_argument);
}

// Fewer sources than one window (n = 5 against at least 16 slots), and a
// byte budget so small that a window holds one tree — fewer than the pool's
// threads, so most workers find nothing to do.
TEST(PooledSweepExactness, WindowEdgeCases) {
  {
    const SweepInstance inst = random_instance(5, 0.5, 105);
    const Topology g = Topology::from_edges(5, inst.edges);
    const DistanceProvider len = DistanceProvider::from_points(inst.points);
    RoutingWorkspace ws;
    ASSERT_LT(g.num_nodes(), ws.window_width(5, 2 * 8));
    check_pooled_modes(g, len, inst.traffic, SpAlgorithm::kAuto);
  }
  {
    const SweepInstance inst = random_instance(37, 0.1, 106);
    const Topology g = Topology::from_edges(37, inst.edges);
    const DistanceProvider len = DistanceProvider::from_points(inst.points);
    RoutingWorkspace ws;
    ws.max_block_bytes = 2 * sp_tree_bytes(37);
    ASSERT_EQ(ws.window_width(37, 2 * 8 * kSpSourceBlock), 1u);
    check_pooled_modes(g, len, inst.traffic, SpAlgorithm::kAuto,
                       ws.max_block_bytes);
  }
}

TEST(PooledSweepExactness, RoutingMatrixAndVisitOrder) {
  const SweepInstance inst = random_instance(50, 0.08, 107);
  const Topology g = Topology::from_edges(50, inst.edges);
  const DistanceProvider len = DistanceProvider::from_points(inst.points);
  RoutingWorkspace ws;
  const Matrix<NodeId> serial = routing_matrix(g, len, ws);
  ThreadPool pool(4);
  EXPECT_TRUE(routing_matrix(g, len, ws, SpAlgorithm::kAuto, &pool) == serial);
  // The visitor sees every source exactly once, in increasing order.
  std::vector<NodeId> visited;
  ASSERT_TRUE(sweep_sources(g, len, ws, SpAlgorithm::kAuto, &pool, nullptr,
                            [&](NodeId s, const ShortestPathTree& tree) {
                              EXPECT_EQ(tree.source, s);
                              visited.push_back(s);
                            }));
  ASSERT_EQ(visited.size(), 50u);
  for (NodeId s = 0; s < 50; ++s) EXPECT_EQ(visited[s], s);
}

std::size_t tree_bytes(const ShortestPathTree& t) {
  return t.dist.capacity() * sizeof(double) + t.hops.capacity() * sizeof(int) +
         t.parent.capacity() * sizeof(NodeId) +
         t.order.capacity() * sizeof(NodeId) +
         t.settled.capacity() * sizeof(std::uint8_t) +
         t.heap.capacity() * sizeof(ShortestPathTree::HeapItem) +
         t.frontier_key.capacity() * sizeof(double) +
         t.block_min.capacity() * sizeof(double);
}

// Memory guard: at city scale a pooled sweep's transient trees — every
// window slot the visitor is handed, both windows together — stay within
// RoutingWorkspace::max_block_bytes, at the default budget and at a tighter
// one, and on a pool larger than the budget has windows for.
TEST(PooledSweep, WindowScratchWithinBlockBudgetAtN2000) {
  const std::size_t n = 2000;
  MatrixFreeGuard matrix_free;
  SweepInstance inst = random_instance(n, 2.0 / n, 108);
  const Topology g = Topology::from_edges(n, inst.edges);
  const DistanceProvider len = DistanceProvider::from_points(inst.points);
  ThreadPool pool(4);
  for (const std::size_t budget :
       {RoutingWorkspace::kDefaultMaxBlockBytes, std::size_t{1} << 20}) {
    RoutingWorkspace ws;
    ws.max_block_bytes = budget;
    // Slot address -> its largest footprint seen (capacities only grow
    // while the window buffer lives; it is freed when the sweep returns).
    std::map<const ShortestPathTree*, std::size_t> slots;
    std::size_t visited = 0;
    ASSERT_TRUE(sweep_sources(g, len, ws, SpAlgorithm::kAuto, &pool, nullptr,
                              [&](NodeId, const ShortestPathTree& tree) {
                                std::size_t& b = slots[&tree];
                                b = std::max(b, tree_bytes(tree));
                                ++visited;
                              }));
    EXPECT_EQ(visited, n);
    // The window slots are reused, not one per source.
    EXPECT_LE(slots.size(), 2 * ws.window_width(n, 2 * pool.size()));
    std::size_t bytes = 0;
    for (const auto& [slot, b] : slots) bytes += b;
    EXPECT_LE(bytes, budget) << "budget " << budget << ", " << slots.size()
                             << " window trees";
    // The serial path's block scratch is left untouched by a pooled sweep.
    EXPECT_TRUE(ws.block.empty());
  }
}

}  // namespace
}  // namespace cold
