#include "cost/cost_cache.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/context.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "util/rng.h"

namespace cold {
namespace {

CostBreakdown feasible_breakdown(double existence) {
  CostBreakdown b;
  b.feasible = true;
  b.existence = existence;
  return b;
}

Context small_context(std::size_t n, std::uint64_t seed) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  return generate_context(cfg, rng);
}

const CostParams kCosts{10.0, 1.0, 4e-4, 10.0};

TEST(CostCache, MissThenHitWithCounters) {
  CostCache cache(EvalCacheConfig{true, 64});
  const Topology g = Topology::from_edges(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(cache.find(g), nullptr);
  cache.insert(g, feasible_breakdown(20.0));
  const CostBreakdown* hit = cache.find(g);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->feasible);
  EXPECT_DOUBLE_EQ(hit->existence, 20.0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CostCache, VerificationRejectsEqualFingerprintDifferentGraph) {
  // Same edge set on different node counts XORs to the same fingerprint;
  // full verification must still reject the lookup.
  CostCache cache(EvalCacheConfig{true, 64});
  const Topology a = Topology::from_edges(4, {{0, 1}});
  const Topology b = Topology::from_edges(5, {{0, 1}});
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  cache.insert(a, feasible_breakdown(1.0));
  EXPECT_EQ(cache.find(b), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_NE(cache.find(a), nullptr);
}

TEST(CostCache, OverwritesInPlace) {
  CostCache cache(EvalCacheConfig{true, 64});
  const Topology g = Topology::from_edges(3, {{0, 1}});
  cache.insert(g, feasible_breakdown(1.0));
  cache.insert(g, feasible_breakdown(2.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().inserts, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_DOUBLE_EQ(cache.find(g)->existence, 2.0);
}

TEST(CostCache, LruEvictsLeastRecentlyUsed) {
  // Capacity 4 = exactly one 4-way set, so all entries compete and the LRU
  // policy is fully observable.
  CostCache cache(EvalCacheConfig{true, 4});
  ASSERT_EQ(cache.capacity(), 4u);
  std::vector<Topology> graphs;
  for (NodeId v = 1; v <= 5; ++v) {
    graphs.push_back(Topology::from_edges(6, {{0, v}}));
  }
  for (int i = 0; i < 4; ++i) {
    cache.insert(graphs[i], feasible_breakdown(i));
  }
  ASSERT_NE(cache.find(graphs[0]), nullptr);  // freshen graph 0
  cache.insert(graphs[4], feasible_breakdown(4.0));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.find(graphs[1]), nullptr);  // the LRU entry was evicted
  EXPECT_NE(cache.find(graphs[0]), nullptr);
  EXPECT_NE(cache.find(graphs[2]), nullptr);
  EXPECT_NE(cache.find(graphs[3]), nullptr);
  EXPECT_NE(cache.find(graphs[4]), nullptr);
}

TEST(EvaluatorCache, CachedResultsAreBitIdentical) {
  const Context ctx = small_context(12, 1);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator cached(ctx.distances, ctx.traffic, kCosts, engine);
  Evaluator plain(ctx.distances, ctx.traffic, kCosts);

  Rng rng(2);
  Topology g = Topology::complete(12);
  for (int step = 0; step < 30; ++step) {
    // A random walk that revisits topologies: flip one random edge, then
    // flip it back every other step.
    const NodeId u = rng.uniform_index(12);
    const NodeId v = (u + 1 + rng.uniform_index(11)) % 12;
    g.set_edge(u, v, !g.has_edge(u, v));
    const CostBreakdown want = plain.breakdown(g);
    const CostBreakdown got = cached.breakdown(g);
    ASSERT_EQ(got.feasible, want.feasible);
    ASSERT_EQ(got.total(), want.total());  // exact, no tolerance
    ASSERT_EQ(got.existence, want.existence);
    ASSERT_EQ(got.bandwidth, want.bandwidth);
    // Evaluate twice more so later iterations hit the cache.
    ASSERT_EQ(cached.breakdown(g).total(), want.total());
    ASSERT_EQ(cached.breakdown(g).total(), want.total());
  }
  const EvalCacheStats stats = cached.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, cached.evaluations());
}

TEST(EvaluatorCache, HitsStillCountAsEvaluations) {
  const Context ctx = small_context(8, 3);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const Topology g = Topology::complete(8);
  eval.cost(g);
  eval.cost(g);
  eval.cost(g);
  EXPECT_EQ(eval.evaluations(), 3u);  // budgets see hits and misses alike
  EXPECT_EQ(eval.cache_stats().hits, 2u);
  EXPECT_EQ(eval.cache_stats().misses, 1u);
}

TEST(EvaluatorCache, InfeasibleResultsAreCachedToo) {
  const Context ctx = small_context(6, 4);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const Topology disconnected = Topology::from_edges(6, {{0, 1}, {2, 3}});
  EXPECT_FALSE(eval.breakdown(disconnected).feasible);
  EXPECT_FALSE(eval.breakdown(disconnected).feasible);
  EXPECT_EQ(eval.cache_stats().hits, 1u);
}

TEST(EvaluatorCache, CloneMergeFoldsCacheStats) {
  const Context ctx = small_context(8, 5);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  engine.cache.shared = false;  // this test exercises per-clone caches
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const Topology g = Topology::complete(8);

  Evaluator worker = eval.clone();
  worker.cost(g);  // miss in the worker's private cache
  worker.cost(g);  // hit
  EXPECT_EQ(worker.cache_stats().hits, 1u);

  eval.cost(g);  // the original's own cache is independent: miss
  EXPECT_EQ(eval.cache_stats().misses, 1u);
  EXPECT_EQ(eval.cache_stats().hits, 0u);

  eval.merge_stats(worker);
  EXPECT_EQ(eval.evaluations(), 3u);
  EXPECT_EQ(eval.cache_stats().hits, 1u);
  EXPECT_EQ(eval.cache_stats().misses, 2u);
  // Transfer semantics: merging is idempotent per unit of work.
  EXPECT_EQ(worker.cache_stats(), EvalCacheStats{});
  eval.merge_stats(worker);
  EXPECT_EQ(eval.cache_stats().hits, 1u);
  EXPECT_EQ(eval.evaluations(), 3u);
}

TEST(EvaluatorLoads, LastLoadsRequiresFreshFeasibleRouting) {
  const Context ctx = small_context(6, 6);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  EXPECT_FALSE(eval.has_last_loads());
  EXPECT_THROW(eval.last_loads(), std::logic_error);  // nothing evaluated yet

  const Topology ring = Topology::from_edges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  ASSERT_TRUE(eval.breakdown(ring).feasible);
  EXPECT_TRUE(eval.has_last_loads());
  EXPECT_EQ(eval.last_loads().rows(), 6u);

  // An infeasible evaluation leaves partial loads: they must not be served.
  const Topology disconnected = Topology::from_edges(6, {{0, 1}});
  ASSERT_FALSE(eval.breakdown(disconnected).feasible);
  EXPECT_FALSE(eval.has_last_loads());
  EXPECT_THROW(eval.last_loads(), std::logic_error);

  ASSERT_TRUE(eval.breakdown(ring).feasible);  // cache hit: routing skipped
  EXPECT_FALSE(eval.has_last_loads());
  EXPECT_THROW(eval.last_loads(), std::logic_error);
}

// The engine's headline guarantee: the GA trajectory is invariant under
// every {cache, thread count, shortest-path solver} combination.
TEST(GaDeterminism, HistoryInvariantAcrossEngineSettings) {
  const Context ctx = small_context(16, 7);
  const auto run = [&ctx](bool cache, std::size_t threads, SpAlgorithm algo) {
    EvalEngineConfig engine;
    engine.cache.enabled = cache;
    engine.sp_algorithm = algo;
    Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
    GaRunOptions options;
    options.config.population = 16;
    options.config.generations = 6;
    options.config.parallel.num_threads = threads;
    Rng rng(9);
    return run_ga(eval, rng, options);
  };

  const GaResult reference = run(false, 1, SpAlgorithm::kDense);
  for (const bool cache : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      for (const SpAlgorithm algo :
           {SpAlgorithm::kDense, SpAlgorithm::kSparse, SpAlgorithm::kAuto}) {
        const GaResult r = run(cache, threads, algo);
        ASSERT_EQ(r.best_cost_history, reference.best_cost_history);
        ASSERT_EQ(r.best_cost, reference.best_cost);
        ASSERT_TRUE(r.best == reference.best);
        ASSERT_EQ(r.final_costs, reference.final_costs);
        ASSERT_EQ(r.evaluations, reference.evaluations);
      }
    }
  }
}

}  // namespace
}  // namespace cold
