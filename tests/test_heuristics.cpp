#include "heuristics/hub_heuristics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>

#include "core/context.h"
#include "core/synthesizer.h"
#include "geom/distance.h"
#include "graph/algorithms.h"

namespace cold {
namespace {

Evaluator make_evaluator(std::size_t n, CostParams params,
                         std::uint64_t seed = 1) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  const Context ctx = generate_context(cfg, rng);
  return Evaluator(ctx.distances, ctx.traffic, params);
}

TEST(HubHeuristics, AllStrategiesReturnConnectedFiniteCost) {
  Evaluator eval = make_evaluator(20, CostParams{10, 1, 4e-4, 10});
  Rng rng(2);
  for (const HeuristicResult& r : run_all_heuristics(eval, rng)) {
    EXPECT_TRUE(is_connected(r.topology)) << r.name;
    EXPECT_TRUE(std::isfinite(r.cost)) << r.name;
    EXPECT_EQ(r.topology.num_nodes(), 20u) << r.name;
  }
}

TEST(HubHeuristics, ReportedCostMatchesEvaluator) {
  Evaluator eval = make_evaluator(15, CostParams{10, 1, 1e-4, 0});
  Rng rng(3);
  for (const HeuristicResult& r : run_all_heuristics(eval, rng)) {
    EXPECT_NEAR(r.cost, eval.cost(r.topology), 1e-9) << r.name;
  }
}

TEST(HubHeuristics, HighHubCostYieldsStar) {
  // With a huge k3, a single hub must win: exactly one core node.
  Evaluator eval = make_evaluator(12, CostParams{10, 1, 1e-5, 1e6});
  Rng rng(4);
  for (const HeuristicResult& r : run_all_heuristics(eval, rng)) {
    EXPECT_EQ(r.topology.num_core_nodes(), 1u) << r.name;
    EXPECT_EQ(r.topology.num_edges(), 11u) << r.name;
  }
}

TEST(HubHeuristics, HighBandwidthCostGrowsHubs) {
  // Large k2 rewards direct links: the hub set should grow well past 1.
  Evaluator eval = make_evaluator(15, CostParams{1, 1, 0.5, 0});
  Rng rng(5);
  const auto r =
      run_hub_heuristic(eval, HubStrategy::kComplete, rng);
  EXPECT_GT(r.topology.num_core_nodes(), 5u);
}

TEST(HubHeuristics, CompleteStrategyHubsFormClique) {
  Evaluator eval = make_evaluator(15, CostParams{5, 1, 1e-3, 20});
  Rng rng(6);
  const auto r = run_hub_heuristic(eval, HubStrategy::kComplete, rng);
  // Every pair of core nodes must be directly linked.
  std::vector<NodeId> cores;
  for (NodeId v = 0; v < 15; ++v) {
    if (r.topology.degree(v) > 1) cores.push_back(v);
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    for (std::size_t j = i + 1; j < cores.size(); ++j) {
      EXPECT_TRUE(r.topology.has_edge(cores[i], cores[j]));
    }
  }
}

TEST(HubHeuristics, MstStrategyHubsFormTree) {
  Evaluator eval = make_evaluator(15, CostParams{5, 1, 1e-3, 20});
  Rng rng(7);
  const auto r = run_hub_heuristic(eval, HubStrategy::kMst, rng);
  // Whole topology is hubs-tree + leaf links: total edges = n - 1.
  EXPECT_EQ(r.topology.num_edges(), 14u);
  EXPECT_TRUE(is_connected(r.topology));
}

TEST(HubHeuristics, RandomGreedyMorePermutationsNeverWorse) {
  Evaluator eval1 = make_evaluator(15, CostParams{10, 1, 4e-4, 10});
  Evaluator eval2 = make_evaluator(15, CostParams{10, 1, 4e-4, 10});
  HubHeuristicOptions few, many;
  few.num_permutations = 1;
  many.num_permutations = 8;
  Rng rng1(8), rng2(8);
  const auto r_few =
      run_hub_heuristic(eval1, HubStrategy::kRandomGreedy, rng1, few);
  const auto r_many =
      run_hub_heuristic(eval2, HubStrategy::kRandomGreedy, rng2, many);
  EXPECT_LE(r_many.cost, r_few.cost + 1e-9);
}

TEST(HubHeuristics, TwoNodeNetwork) {
  ContextConfig cfg;
  cfg.num_pops = 2;
  Rng ctx_rng(9);
  const Context ctx = generate_context(cfg, ctx_rng);
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{});
  Rng rng(9);
  const auto r = run_hub_heuristic(eval, HubStrategy::kComplete, rng);
  EXPECT_EQ(r.topology.num_edges(), 1u);
}

TEST(HubHeuristics, RejectsTrivialInstances) {
  Evaluator eval(Matrix<double>::square(1, 0.0), Matrix<double>::square(1, 0.0),
                 CostParams{});
  Rng rng(10);
  EXPECT_THROW(run_hub_heuristic(eval, HubStrategy::kMst, rng),
               std::invalid_argument);
}

TEST(BuildHubTopology, LeavesAttachToNearestHub) {
  const std::vector<Point> pts{{0, 0}, {10, 0}, {1, 0}, {9, 0}};
  const auto d = distance_matrix(pts);
  const Topology g = build_hub_topology(4, {0, 1}, {make_edge(0, 1)}, d);
  EXPECT_TRUE(g.has_edge(0, 2));  // 2 closer to hub 0
  EXPECT_TRUE(g.has_edge(1, 3));  // 3 closer to hub 1
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(BuildHubTopology, Validates) {
  const auto d = Matrix<double>::square(3, 1.0);
  EXPECT_THROW(build_hub_topology(3, {}, {}, d), std::invalid_argument);
  EXPECT_THROW(build_hub_topology(3, {0}, {make_edge(1, 2)}, d),
               std::invalid_argument);
  EXPECT_THROW(build_hub_topology(3, {5}, {}, d), std::invalid_argument);
}

TEST(HubStrategy, NamesAreStable) {
  EXPECT_EQ(to_string(HubStrategy::kRandomGreedy), "random greedy");
  EXPECT_EQ(to_string(HubStrategy::kComplete), "complete");
  EXPECT_EQ(to_string(HubStrategy::kMst), "mst");
  EXPECT_EQ(to_string(HubStrategy::kGreedyAttachment), "greedy attachment");
  EXPECT_EQ(all_hub_strategies().size(), 4u);
}

// --- Parallel scoring is exact --------------------------------------------

// Sets both dense-backend thresholds (topology adjacency and distances) for
// its lifetime, like the CLI's --dense-threshold.
class DenseThresholdGuard {
 public:
  explicit DenseThresholdGuard(std::size_t n)
      : topology_(Topology::dense_auto_threshold()),
        distances_(DistanceProvider::dense_auto_threshold()) {
    Topology::set_dense_auto_threshold(n);
    DistanceProvider::set_dense_auto_threshold(n);
  }
  ~DenseThresholdGuard() {
    Topology::set_dense_auto_threshold(topology_);
    DistanceProvider::set_dense_auto_threshold(distances_);
  }
  DenseThresholdGuard(const DenseThresholdGuard&) = delete;
  DenseThresholdGuard& operator=(const DenseThresholdGuard&) = delete;

 private:
  std::size_t topology_;
  std::size_t distances_;
};

struct ExactnessCase {
  const char* name;
  std::size_t n;
  bool matrix_free;      ///< both dense thresholds at 0 for the whole run
  bool cache_and_delta;  ///< cost cache + delta engine, else neither
};

void PrintTo(const ExactnessCase& c, std::ostream* os) { *os << c.name; }

struct StrategyOutcome {
  std::vector<Edge> edges;
  std::uint64_t cost_bits = 0;
  std::size_t evaluations = 0;
};

// Every strategy in turn on one evaluator (so cache and retained routing
// state carry over between heuristics, as in a synthesis run).
std::vector<StrategyOutcome> run_each_strategy(const ExactnessCase& c,
                                               std::size_t threads) {
  std::optional<DenseThresholdGuard> matrix_free;
  if (c.matrix_free) matrix_free.emplace(0);
  ContextConfig context;
  context.num_pops = c.n;
  Rng context_rng(c.n);
  const Context ctx = generate_context(context, context_rng);
  EXPECT_EQ(ctx.distances.has_dense(), !c.matrix_free);
  EvalEngineConfig engine;
  engine.cache.enabled = c.cache_and_delta;
  if (c.cache_and_delta) engine.delta.mode = DsspMode::kOn;
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{10, 1, 4e-4, 10},
                 engine);
  HubHeuristicOptions options;
  options.num_permutations = 2;
  std::vector<StrategyOutcome> out;
  for (const HubStrategy s : all_hub_strategies()) {
    Rng rng(17);
    const std::size_t before = eval.evaluations();
    const HeuristicResult r = run_hub_heuristic(eval, s, rng, options, threads);
    out.push_back({r.topology.edges(), std::bit_cast<std::uint64_t>(r.cost),
                   eval.evaluations() - before});
  }
  return out;
}

class ParallelHeuristicExactness
    : public ::testing::TestWithParam<ExactnessCase> {};

TEST_P(ParallelHeuristicExactness, MatchesSerialWalkAtAnyThreadCount) {
  const std::vector<StrategyOutcome> serial = run_each_strategy(GetParam(), 1);
  const std::vector<HubStrategy> strategies = all_hub_strategies();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const std::vector<StrategyOutcome> parallel =
        run_each_strategy(GetParam(), threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const std::string where =
          to_string(strategies[i]) + " at " + std::to_string(threads) +
          " threads";
      EXPECT_EQ(parallel[i].edges, serial[i].edges) << where;
      EXPECT_EQ(parallel[i].cost_bits, serial[i].cost_bits) << where;
      EXPECT_EQ(parallel[i].evaluations, serial[i].evaluations) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Contexts, ParallelHeuristicExactness,
    ::testing::Values(ExactnessCase{"n20_dense", 20, false, false},
                      ExactnessCase{"n20_dense_cache_dsssp", 20, false, true},
                      ExactnessCase{"n80_sparse", 80, false, false},
                      ExactnessCase{"n80_sparse_cache_dsssp", 80, false, true},
                      ExactnessCase{"n40_matrix_free", 40, true, false},
                      ExactnessCase{"n40_matrix_free_cache_dsssp", 40, true,
                                    true}),
    [](const ::testing::TestParamInfo<ExactnessCase>& info) {
      return std::string(info.param.name);
    });

struct StoppedRun {
  std::vector<std::vector<Edge>> seeds;
  std::size_t charged = 0;
  std::vector<Edge> best;
  std::uint64_t cost_bits = 0;
};

TEST(ParallelHeuristics, EvalBudgetStopsAfterTheSameHeuristic) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 24;
  cfg.ga.population = 12;
  cfg.ga.generations = 5;
  cfg.heuristic_options.num_permutations = 2;
  constexpr std::uint64_t kSeed = 3;
  Rng context_rng(kSeed, /*stream=*/0);
  const Context ctx = generate_context(cfg.context, context_rng);

  // A budget one evaluation past the first heuristic's charge expires
  // inside the second heuristic, so the sweep stops right after it.
  std::size_t first = 0;
  {
    Evaluator eval(ctx.distances, ctx.traffic, cfg.costs, cfg.engine);
    Rng rng(kSeed, /*stream=*/1);
    run_hub_heuristic(eval, all_hub_strategies().front(), rng,
                      cfg.heuristic_options);
    first = eval.evaluations();
  }

  std::vector<StoppedRun> runs;
  for (const std::size_t threads : {1u, 4u}) {
    StopCondition stop = StopCondition::eval_budget(first + 1);
    cfg.stop = &stop;
    cfg.ga.parallel.num_threads = threads;
    const SynthesisResult r = Synthesizer(cfg).synthesize_for_context(ctx, kSeed);
    ASSERT_EQ(r.heuristics.size(), 2u) << threads << " threads";
    StoppedRun run;
    for (const HeuristicResult& h : r.heuristics) {
      run.seeds.push_back(h.topology.edges());
    }
    run.charged = stop.evaluations();
    run.best = r.ga.best.edges();
    run.cost_bits = std::bit_cast<std::uint64_t>(r.cost.total());
    runs.push_back(std::move(run));
  }
  EXPECT_GT(runs[0].charged, first + 1);
  EXPECT_EQ(runs[1].seeds, runs[0].seeds);
  EXPECT_EQ(runs[1].charged, runs[0].charged);
  EXPECT_EQ(runs[1].best, runs[0].best);
  EXPECT_EQ(runs[1].cost_bits, runs[0].cost_bits);
}

}  // namespace
}  // namespace cold
