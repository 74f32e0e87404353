// Tests for the cost cache shared across an evaluator's worker clones and
// the engine-wide determinism contract it must uphold (the cache's eviction,
// budget and stress tests are in test_cost_cache.cpp).
//
// Three layers:
//   1. The shared cache's lookup contract: verified hits, collision
//      rejection, in-place overwrites.
//   2. Evaluator integration: clones share one cache, and its hits are
//      bit-identical to routing.
//   3. The engine's headline property: GA trajectories, best-cost
//      histories, and timing-free telemetry (canonical traces + JSON
//      reports) are byte-identical across {no cache, cache} x
//      {dedup on/off} x {1, 2, 4, 8 threads}.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/synthesizer.h"
#include "cost/cost_cache.h"
#include "cost/evaluator.h"
#include "telemetry/report.h"
#include "telemetry/sinks.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace cold {
namespace {

CostBreakdown feasible_breakdown(double existence) {
  CostBreakdown b;
  b.feasible = true;
  b.existence = existence;
  return b;
}

const CostParams kCosts{10.0, 1.0, 4e-4, 10.0};

// ---------------------------------------------------------------------------
// The shared cache's lookup contract.
// ---------------------------------------------------------------------------

TEST(SharedCostCache, MissThenVerifiedHit) {
  CostCache cache(EvalCacheConfig{});
  const Topology g = Topology::from_edges(4, {{0, 1}, {1, 2}});
  CostBreakdown out;
  EXPECT_FALSE(cache.find(g, out));
  cache.insert(g, feasible_breakdown(20.0));
  ASSERT_TRUE(cache.find(g, out));
  EXPECT_TRUE(out.feasible);
  EXPECT_DOUBLE_EQ(out.existence, 20.0);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedCostCache, VerificationRejectsEqualFingerprintDifferentGraph) {
  // Same edge set on different node counts XORs to the same fingerprint;
  // full verification must still reject the lookup.
  CostCache cache(EvalCacheConfig{});
  const Topology a = Topology::from_edges(4, {{0, 1}});
  const Topology b = Topology::from_edges(5, {{0, 1}});
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  cache.insert(a, feasible_breakdown(1.0));
  CostBreakdown out;
  EXPECT_FALSE(cache.find(b, out));
  ASSERT_TRUE(cache.find(a, out));
  EXPECT_DOUBLE_EQ(out.existence, 1.0);
}

TEST(SharedCostCache, OverwritesInPlace) {
  CostCache cache(EvalCacheConfig{});
  const Topology g = Topology::from_edges(3, {{0, 1}});
  cache.insert(g, feasible_breakdown(1.0));
  cache.insert(g, feasible_breakdown(2.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().inserts, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  CostBreakdown out;
  ASSERT_TRUE(cache.find(g, out));
  EXPECT_DOUBLE_EQ(out.existence, 2.0);
}

// ---------------------------------------------------------------------------
// Evaluator integration: clones share one cache.
// ---------------------------------------------------------------------------

Context small_context(std::size_t n, std::uint64_t seed) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  return generate_context(cfg, rng);
}

TEST(SharedEvaluatorCache, CloneHitsOnPrimaryInsert) {
  const Context ctx = small_context(8, 5);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  ASSERT_NE(eval.cache(), nullptr);
  const Topology g = Topology::complete(8);

  eval.cost(g);  // miss; fills the shared cache
  Evaluator worker = eval.clone();
  EXPECT_EQ(worker.cache(), eval.cache());
  worker.cost(g);  // cross-instance hit
  EXPECT_EQ(worker.cache_stats().hits, 1u);
  EXPECT_EQ(worker.cache_stats().misses, 0u);

  eval.merge_stats(worker);
  const EvalCacheStats stats = eval.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.hits + stats.misses, eval.evaluations());
}

TEST(SharedEvaluatorCache, FreshEvaluatorHoldsNoShardTables) {
  const Context ctx = small_context(8, 7);
  Evaluator eval(ctx.distances, ctx.traffic, kCosts);  // default engine
  ASSERT_NE(eval.cache(), nullptr);
  EXPECT_EQ(eval.cache()->resident_bytes(), 0u);
  Evaluator worker = eval.clone();
  EXPECT_EQ(worker.cache()->resident_bytes(), 0u);

  const Topology g = Topology::complete(8);
  worker.cost(g);  // first insert allocates exactly one shard's arrays
  const std::size_t one = eval.cache()->resident_bytes();
  EXPECT_GT(one, 0u);
  EXPECT_LE(one, eval.cache()->max_bytes());
  eval.cost(g);  // a hit allocates nothing
  EXPECT_EQ(eval.cache()->resident_bytes(), one);
  EXPECT_EQ(eval.cache_stats().hits, 1u);
}

TEST(SharedEvaluatorCache, SharedResultsAreBitIdentical) {
  const Context ctx = small_context(10, 6);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator shared_a(ctx.distances, ctx.traffic, kCosts, engine);
  Evaluator shared_b = shared_a.clone();
  Evaluator plain(ctx.distances, ctx.traffic, kCosts);

  Rng rng(3);
  Topology g = Topology::complete(10);
  for (int step = 0; step < 40; ++step) {
    const NodeId u = rng.uniform_index(10);
    const NodeId v = (u + 1 + rng.uniform_index(9)) % 10;
    g.set_edge(u, v, !g.has_edge(u, v));
    const CostBreakdown want = plain.evaluate(g).breakdown;
    // Alternate which instance evaluates first: whoever comes second should
    // often hit the shared entry, and must match exactly either way.
    Evaluator& first = (step % 2 == 0) ? shared_a : shared_b;
    Evaluator& second = (step % 2 == 0) ? shared_b : shared_a;
    ASSERT_EQ(first.evaluate(g).total(), want.total());
    ASSERT_EQ(second.evaluate(g).total(), want.total());
    ASSERT_EQ(second.evaluate(g).breakdown.existence, want.existence);
    ASSERT_EQ(second.evaluate(g).breakdown.bandwidth, want.bandwidth);
  }
  shared_a.merge_stats(shared_b);
  const EvalCacheStats stats = shared_a.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, shared_a.evaluations());
}

// ---------------------------------------------------------------------------
// The headline property: engine configuration is invisible in timing-free
// telemetry and in the optimization trajectory.
// ---------------------------------------------------------------------------

struct ComboOutput {
  std::string trace;
  std::string report;
  std::vector<double> history;
  double best_cost = 0.0;
  std::size_t evaluations = 0;
};

ComboOutput run_combo(std::size_t pops, std::uint64_t seed, bool cache,
                      bool dedup, std::size_t threads, bool heuristics) {
  SynthesisConfig cfg;
  cfg.context.num_pops = pops;
  cfg.seed_with_heuristics = heuristics;
  cfg.ga.population = 10;
  cfg.ga.generations = 3;
  cfg.ga.dedup = dedup;
  cfg.ga.parallel.num_threads = threads;
  cfg.engine.cache.enabled = cache;

  TraceSink trace;
  JsonReportSink report;
  MultiObserver multi;
  multi.add(&trace);
  multi.add(&report);
  cfg.observer = &multi;

  const SynthesisResult r = Synthesizer(cfg).synthesize(seed);
  ComboOutput out;
  out.trace = trace.canonical(/*include_timing=*/false);
  out.report = run_report_to_json(report.report(), /*include_timing=*/false);
  out.history = r.ga.best_cost_history;
  out.best_cost = r.ga.best_cost;
  out.evaluations = r.ga.evaluations;
  return out;
}

struct SynthesisOutcome {
  std::vector<Edge> edges;
  std::uint64_t cost_bits = 0;
  CostBreakdown cost;
  std::vector<double> history;
  std::size_t evaluations = 0;
  std::string report;  ///< timing-free: per-phase evaluation counts
};

SynthesisOutcome synthesize_with(std::size_t pops, bool cache,
                                 std::size_t threads) {
  SynthesisConfig cfg;
  cfg.context.num_pops = pops;
  cfg.ga.population = 16;
  cfg.ga.generations = 6;
  cfg.ga.parallel.num_threads = threads;
  cfg.engine.cache.enabled = cache;
  JsonReportSink report;
  cfg.observer = &report;
  const SynthesisResult r = Synthesizer(cfg).synthesize(41);
  return {r.ga.best.edges(),
          std::bit_cast<std::uint64_t>(r.ga.best_cost),
          r.cost,
          r.ga.best_cost_history,
          r.ga.evaluations,
          run_report_to_json(report.report(), /*include_timing=*/false)};
}

std::vector<std::uint64_t> breakdown_bits(const CostBreakdown& b) {
  const ResilienceSummary& rs = b.resilience_summary;
  const MultipathSummary& ms = b.multipath_summary;
  std::vector<std::uint64_t> out{b.feasible, rs.scenarios, rs.disconnecting};
  for (const double d :
       {b.existence, b.length, b.bandwidth, b.node, b.resilience, b.multipath,
        rs.disconnected_fraction, rs.mean_stretch, rs.worst_stretch,
        rs.worst_utilization, ms.reference_capacity, ms.max_utilization,
        ms.oversubscription}) {
    out.push_back(std::bit_cast<std::uint64_t>(d));
  }
  return out;
}

TEST(CacheExactness, DefaultEngineMatchesUncachedSynthesis) {
  // The default engine (shared cache on) against cache off, heuristics on,
  // at n = 30 (dense kernel) and n = 80 (sparse), at 1, 2 and 4 threads.
  for (const std::size_t pops : {30u, 80u}) {
    const SynthesisOutcome reference = synthesize_with(pops, false, 1);
    ASSERT_FALSE(reference.history.empty());
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const bool cache : {true, false}) {
        const SynthesisOutcome got = synthesize_with(pops, cache, threads);
        const std::string label = "n=" + std::to_string(pops) +
                                  " threads=" + std::to_string(threads) +
                                  " cache=" + std::to_string(cache);
        EXPECT_EQ(got.edges, reference.edges) << label;
        EXPECT_EQ(got.cost_bits, reference.cost_bits) << label;
        EXPECT_EQ(breakdown_bits(got.cost), breakdown_bits(reference.cost))
            << label;
        EXPECT_EQ(got.history, reference.history) << label;
        EXPECT_EQ(got.evaluations, reference.evaluations) << label;
        EXPECT_EQ(got.report, reference.report) << label;
      }
    }
  }
}

TEST(EngineDeterminism, TracesInvariantAcrossCacheDedupAndThreads) {
  // >= 50 random trials; each runs all 16 engine combinations and demands
  // byte-identical timing-free telemetry. Most trials skip heuristic
  // seeding to keep the suite fast; a handful keep it on so the heuristics
  // phase is covered too.
  constexpr int kTrials = 55;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t pops = 8 + trial % 5;
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    const bool heuristics = trial >= kTrials - 5;

    const ComboOutput reference =
        run_combo(pops, seed, /*cache=*/false, /*dedup=*/false,
                  /*threads=*/1, heuristics);
    ASSERT_FALSE(reference.trace.empty());
    for (const bool cache : {false, true}) {
      for (const bool dedup : {false, true}) {
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
          if (!cache && !dedup && threads == 1) continue;
          const ComboOutput got =
              run_combo(pops, seed, cache, dedup, threads, heuristics);
          const std::string label =
              "trial=" + std::to_string(trial) +
              " cache=" + std::to_string(cache) +
              " dedup=" + std::to_string(dedup) +
              " threads=" + std::to_string(threads);
          ASSERT_EQ(got.trace, reference.trace) << label;
          ASSERT_EQ(got.report, reference.report) << label;
          ASSERT_EQ(got.history, reference.history) << label;
          ASSERT_EQ(got.best_cost, reference.best_cost) << label;
          ASSERT_EQ(got.evaluations, reference.evaluations) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cold
