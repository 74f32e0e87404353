#include "net/network.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "baselines/erdos_renyi.h"
#include "core/synthesizer.h"
#include "cost/evaluator.h"
#include "geom/distance.h"
#include "geom/point_process.h"
#include "graph/algorithms.h"
#include "telemetry/report.h"
#include "traffic/gravity.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cold {
namespace {

Network make_test_network(double overprovision = 1.0) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const std::vector<double> pops{10, 20, 30, 40};
  return build_network(g, pts, pops, gravity_matrix(pops), overprovision);
}

TEST(BuildNetwork, PopulatesAllFields) {
  const Network net = make_test_network();
  EXPECT_EQ(net.num_pops(), 4u);
  EXPECT_EQ(net.num_links(), 4u);
  EXPECT_EQ(net.lengths.rows(), 4u);
  EXPECT_EQ(net.routing.rows(), 4u);
  for (const Link& l : net.links) {
    EXPECT_GT(l.length, 0.0);
    EXPECT_GT(l.load, 0.0);
    EXPECT_DOUBLE_EQ(l.capacity, l.load);  // overprovision = 1
  }
  EXPECT_NO_THROW(validate_network(net));
}

TEST(BuildNetwork, OverprovisionScalesCapacity) {
  const Network net = make_test_network(1.5);
  for (const Link& l : net.links) {
    EXPECT_DOUBLE_EQ(l.capacity, 1.5 * l.load);
  }
  EXPECT_NEAR(net.max_utilization(), 1.0 / 1.5, 1e-12);
  EXPECT_NO_THROW(validate_network(net));
}

TEST(BuildNetwork, RejectsDisconnectedTopology) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}};
  Topology g(3);
  g.add_edge(0, 1);
  const std::vector<double> pops{1, 1, 1};
  EXPECT_THROW(build_network(g, pts, pops, gravity_matrix(pops)),
               std::invalid_argument);
}

TEST(BuildNetwork, RejectsShapeMismatch) {
  const std::vector<Point> pts{{0, 0}, {1, 0}};
  Topology g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(build_network(g, pts, {1.0}, gravity_matrix({1.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW(
      build_network(g, pts, {1.0, 1.0}, gravity_matrix({1.0, 1.0, 1.0})),
      std::invalid_argument);
}

TEST(BuildNetwork, RejectsUnderProvision) {
  const std::vector<Point> pts{{0, 0}, {1, 0}};
  Topology g(2);
  g.add_edge(0, 1);
  const std::vector<double> pops{1, 1};
  EXPECT_THROW(build_network(g, pts, pops, gravity_matrix(pops), 0.5),
               std::invalid_argument);
}

TEST(Network, LinkCapacityLookup) {
  const Network net = make_test_network(2.0);
  EXPECT_GT(net.link_capacity(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(net.link_capacity(0, 1), net.link_capacity(1, 0));
  EXPECT_THROW(net.link_capacity(0, 2), std::invalid_argument);
}

TEST(Network, LoadsAreConsistentWithDemands) {
  // Total link load * length == demand-weighted shortest path length; and
  // every link's load is bounded by the total offered traffic.
  const Network net = make_test_network();
  const double total = total_traffic(net.traffic);
  for (const Link& l : net.links) {
    EXPECT_LE(l.load, total + 1e-9);
  }
}

TEST(ValidateNetwork, DetectsTampering) {
  Network net = make_test_network();
  net.links[0].capacity *= 2.0;  // break capacity invariant
  EXPECT_THROW(validate_network(net), std::logic_error);

  Network net2 = make_test_network();
  net2.links[0].load = -1.0;
  EXPECT_THROW(validate_network(net2), std::logic_error);

  Network net3 = make_test_network();
  net3.populations.pop_back();
  EXPECT_THROW(validate_network(net3), std::logic_error);
}

TEST(ValidateNetwork, DetectsBrokenRouting) {
  Network net = make_test_network();
  // Point a next-hop at a non-adjacent node.
  net.routing(0, 2) = 2;  // 0 and 2 are not adjacent in the ring
  EXPECT_THROW(validate_network(net), std::logic_error);
}

TEST(BuildNetwork, LargerRandomInstanceValidates) {
  Rng rng(7);
  const std::size_t n = 30;
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  Topology g(n);
  connect_components(g, distance_matrix(pts));  // random tree via repair
  const Network net =
      build_network(g, pts, pops, gravity_matrix(pops), 1.25);
  EXPECT_NO_THROW(validate_network(net));
  EXPECT_EQ(net.num_links(), n - 1);
}

// ---------------------------------------------------------------------------
// Pooled assembly: the synthesizer lends its idle GA threads to the winner's
// re-score and capacity sweep. Nothing observable may depend on it.

/// Forces matrix-free distances (and sparse topologies) at any n, restoring
/// both thresholds on scope exit.
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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_breakdown(const CostBreakdown& a, const CostBreakdown& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(bits(a.existence), bits(b.existence));
  EXPECT_EQ(bits(a.length), bits(b.length));
  EXPECT_EQ(bits(a.bandwidth), bits(b.bandwidth));
  EXPECT_EQ(bits(a.node), bits(b.node));
  EXPECT_EQ(bits(a.resilience), bits(b.resilience));
  EXPECT_EQ(bits(a.multipath), bits(b.multipath));
  EXPECT_EQ(bits(a.total()), bits(b.total()));
}

struct AssemblyRun {
  SynthesisResult result;
  RunReport report;
};

AssemblyRun synthesize_with(SynthesisConfig cfg, std::size_t threads) {
  JsonReportSink sink;
  cfg.observer = &sink;
  cfg.ga.parallel.num_threads = threads;
  AssemblyRun run;
  run.result = Synthesizer(cfg).synthesize(/*seed=*/17);
  run.report = sink.report();
  return run;
}

void expect_same_network(const Network& a, const Network& b) {
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].edge, b.links[i].edge) << "link " << i;
    EXPECT_EQ(bits(a.links[i].load), bits(b.links[i].load)) << "link " << i;
    EXPECT_EQ(bits(a.links[i].capacity), bits(b.links[i].capacity))
        << "link " << i;
  }
  EXPECT_TRUE(a.routing == b.routing);
}

SynthesisConfig assembly_config() {
  SynthesisConfig cfg;
  cfg.context.num_pops = 60;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 8;
  cfg.ga.generations = 4;
  // One scoring of each distinct topology per generation: the shared
  // cache's hit/miss split is then independent of which worker scores
  // what, so cache counters compare exactly across thread counts.
  cfg.ga.dedup = true;
  cfg.seed_with_heuristics = false;
  return cfg;
}

// At 4 threads the assembly routes the winner on a 4-thread pool; at 1 it
// routes serially. Costs, loads, capacities, evaluations and cache
// counters must not tell the two apart.
TEST(PooledAssembly, SynthesisIdenticalAtOneAndFourThreads) {
  MatrixFreeGuard matrix_free;
  for (const DsspMode delta : {DsspMode::kOff, DsspMode::kOn}) {
    SCOPED_TRACE(delta == DsspMode::kOn ? "delta on" : "delta off");
    SynthesisConfig cfg = assembly_config();
    cfg.engine.delta.mode = delta;
    const AssemblyRun serial = synthesize_with(cfg, 1);
    const AssemblyRun pooled = synthesize_with(cfg, 4);
    ASSERT_FALSE(serial.result.network.lengths.has_dense());
    expect_same_breakdown(serial.result.cost, pooled.result.cost);
    expect_same_network(serial.result.network, pooled.result.network);
    EXPECT_EQ(serial.report.evaluations, pooled.report.evaluations);
    EXPECT_EQ(serial.report.cache_hits, pooled.report.cache_hits);
    EXPECT_EQ(serial.report.cache_misses, pooled.report.cache_misses);
    EXPECT_EQ(serial.report.cache_inserts, pooled.report.cache_inserts);
    EXPECT_EQ(serial.report.cache_evictions, pooled.report.cache_evictions);
    // Delta states are retained per GA worker, so how routed evaluations
    // split into hits and fallbacks depends on which worker scored which
    // child; only their sum is thread-count-free.
    EXPECT_EQ(serial.report.dsssp_hits + serial.report.dsssp_fallbacks,
              pooled.report.dsssp_hits + pooled.report.dsssp_fallbacks);
  }
}

struct EvalTrace {
  std::vector<CostBreakdown> breakdowns;
  std::vector<std::vector<std::uint64_t>> loads;
  std::size_t evaluations = 0;
  EvalCacheStats cache;
  DeltaStats delta;
  ResilienceStats resilience;
  MultipathStats multipath;
};

// Scores a fixed sequence on a fresh evaluator: a full sweep, a one-edge
// neighbour (the delta engine's repair path), the first again (a cache hit
// when the cache is on), and a disconnected topology.
EvalTrace score_sequence(const DistanceProvider& len,
                         const CompressedTraffic& traffic,
                         const EvalEngineConfig& engine,
                         const std::vector<Topology>& sequence,
                         ThreadPool* pool) {
  Evaluator eval(len, traffic, CostParams{10, 1, 4e-4, 10}, engine);
  EvalTrace t;
  for (const Topology& g : sequence) {
    EvalRequest req;
    req.want_loads = true;
    req.pool = pool;
    const EvalResult r = eval.evaluate(g, req);
    t.breakdowns.push_back(r.breakdown);
    std::vector<std::uint64_t> load_bits;
    if (r.loads_valid) {
      for (const double x : r.loads.value) load_bits.push_back(bits(x));
    }
    t.loads.push_back(std::move(load_bits));
    // A plain evaluation too, so the cache probe path is exercised.
    t.breakdowns.push_back(eval.evaluate(g, {.pool = pool}).breakdown);
  }
  t.evaluations = eval.evaluations();
  t.cache = eval.cache_stats();
  t.delta = eval.delta_stats();
  t.resilience = eval.resilience_stats();
  t.multipath = eval.multipath_stats();
  return t;
}

// The evaluator forwards EvalRequest::pool to whichever full sweep it runs
// — plain, multipath, resilient, or the delta engine's fallback — and every
// output and counter stays bit-identical to the serial evaluation.
TEST(PooledAssembly, EvaluatorPoolMatchesSerialAcrossEngines) {
  MatrixFreeGuard matrix_free;
  const std::size_t n = 48;
  Rng rng(29);
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  const DistanceProvider len = DistanceProvider::from_points(pts);
  ASSERT_FALSE(len.has_dense());
  Topology g = erdos_renyi_gnp(n, 0.08, rng);
  connect_components(g, len);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  const CompressedTraffic traffic(gravity_matrix(pops));
  Topology neighbour = g;
  for (NodeId v = 2; v < n; ++v) {
    if (!neighbour.has_edge(0, v)) {
      neighbour.add_edge(0, v);
      break;
    }
  }
  const Topology disconnected(n);
  const std::vector<Topology> sequence{g, neighbour, g, disconnected};

  std::vector<std::pair<const char*, EvalEngineConfig>> engines;
  EvalEngineConfig plain;
  engines.emplace_back("cached", plain);
  plain.cache.enabled = false;
  engines.emplace_back("uncached", plain);
  EvalEngineConfig delta = plain;
  delta.delta.mode = DsspMode::kOn;
  engines.emplace_back("delta", delta);
  EvalEngineConfig resilient = plain;
  resilient.resilience.enabled = true;
  resilient.resilience.weight = 0.5;
  engines.emplace_back("resilient", resilient);
  EvalEngineConfig ecmp = plain;
  ecmp.multipath.mode = MultipathMode::kEcmp;
  ecmp.multipath.max_util_weight = 1.0;
  engines.emplace_back("ecmp", ecmp);
  EvalEngineConfig wcmp_delta = delta;
  wcmp_delta.multipath.mode = MultipathMode::kWcmp;
  engines.emplace_back("wcmp+delta", wcmp_delta);

  ThreadPool pool(4);
  for (const auto& [name, engine] : engines) {
    SCOPED_TRACE(name);
    const EvalTrace serial = score_sequence(len, traffic, engine, sequence,
                                            nullptr);
    const EvalTrace pooled = score_sequence(len, traffic, engine, sequence,
                                            &pool);
    ASSERT_EQ(serial.breakdowns.size(), pooled.breakdowns.size());
    for (std::size_t i = 0; i < serial.breakdowns.size(); ++i) {
      expect_same_breakdown(serial.breakdowns[i], pooled.breakdowns[i]);
    }
    EXPECT_EQ(serial.loads, pooled.loads);
    EXPECT_EQ(serial.evaluations, pooled.evaluations);
    EXPECT_EQ(serial.cache.hits, pooled.cache.hits);
    EXPECT_EQ(serial.cache.misses, pooled.cache.misses);
    EXPECT_EQ(serial.cache.inserts, pooled.cache.inserts);
    EXPECT_TRUE(serial.delta == pooled.delta);
    EXPECT_TRUE(serial.resilience == pooled.resilience);
    EXPECT_EQ(serial.multipath.sweeps, pooled.multipath.sweeps);
    EXPECT_EQ(serial.multipath.branch_points, pooled.multipath.branch_points);
    EXPECT_EQ(serial.multipath.dag_edges, pooled.multipath.dag_edges);
  }
  // The sequence reaches the paths it is meant to.
  const EvalTrace delta_run =
      score_sequence(len, traffic, delta, sequence, &pool);
  EXPECT_GT(delta_run.delta.hits, 0u);
  EXPECT_GT(delta_run.delta.fallbacks, 0u);
  EXPECT_FALSE(delta_run.breakdowns.back().feasible);
}

TEST(PooledAssembly, BuildNetworkWithPoolMatchesSerial) {
  MatrixFreeGuard matrix_free;
  const std::size_t n = 40;
  Rng rng(31);
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  Topology g = erdos_renyi_gnp(n, 0.1, rng);
  connect_components(g, DistanceProvider::from_points(pts));
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  const CompressedTraffic traffic(gravity_matrix(pops));
  ThreadPool pool(4);
  for (const MultipathMode mode :
       {MultipathMode::kOff, MultipathMode::kEcmp, MultipathMode::kWcmp}) {
    NetworkBuildOptions options;
    options.overprovision = 1.25;
    options.multipath = mode;
    options.materialize_routing = NetworkBuildOptions::Routing::kAlways;
    const Network serial = build_network(g, pts, pops, traffic, options);
    options.pool = &pool;
    const Network pooled = build_network(g, pts, pops, traffic, options);
    ASSERT_TRUE(serial.has_routing());
    expect_same_network(serial, pooled);
    EXPECT_NO_THROW(validate_network(pooled));
  }
}

}  // namespace
}  // namespace cold
