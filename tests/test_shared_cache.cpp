// Tests for the shared cross-worker cost cache and the engine-wide
// determinism contract it must uphold.
//
// Three layers:
//   1. SharedCostCache unit behavior (verified hits, collision rejection,
//      LRU eviction, counter conservation).
//   2. A multi-threaded stress test hammering colliding shards — meant to
//      run under TSan as well as the regular suites.
//   3. The engine's headline property: GA trajectories, best-cost
//      histories, and timing-free telemetry (canonical traces + JSON
//      reports) are byte-identical across {no cache, private cache, shared
//      cache} x {dedup on/off} x {1, 2, 4, 8 threads}.
#include "cost/shared_cost_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
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
// SharedCostCache unit behavior.
// ---------------------------------------------------------------------------

TEST(SharedCostCache, MissThenVerifiedHit) {
  SharedCostCache cache(EvalCacheConfig{});
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
  SharedCostCache cache(EvalCacheConfig{});
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
  SharedCostCache cache(EvalCacheConfig{});
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

TEST(SharedCostCache, EvictionKeepsConservationInvariants) {
  // A 64 KiB budget gives each of the 64 shards 1 KiB, a handful of
  // entries; inserting every single-edge topology of K_70 (2415 distinct
  // graphs) must evict, stay within the byte budget, and keep
  // size == inserts - evictions (all graphs distinct, so no overwrites).
  SharedCostCache cache(EvalCacheConfig{.max_bytes = 64 << 10});
  ASSERT_EQ(cache.max_bytes(), 64u << 10);
  std::size_t inserted = 0;
  for (NodeId u = 0; u < 70; ++u) {
    for (NodeId v = u + 1; v < 70; ++v) {
      cache.insert(Topology::from_edges(70, {{u, v}}),
                   feasible_breakdown(static_cast<double>(inserted)));
      ++inserted;
    }
  }
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, inserted);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
  EXPECT_EQ(cache.size(), stats.inserts - stats.evictions);
}

TEST(SharedCostCache, InsertStormAtN2000StaysUnderByteBudget) {
  // City-scale entries (n = 2000, m ~ 2100, ~4 KB encoded each). Under a
  // 128 KiB budget (the default) they exceed a shard's 2 KiB share and are
  // never stored; 1 MiB holds a few per shard, so 300 graphs churn. Both
  // keep the resident bytes within the budget and the counters conserved.
  constexpr NodeId kN = 2000;
  Rng rng(2000);
  std::vector<Topology> graphs;
  for (int i = 0; i < 300; ++i) {
    std::vector<Edge> edges;
    for (NodeId v = 1; v < kN; ++v) {
      edges.push_back({static_cast<NodeId>(rng.uniform_index(v)), v});
    }
    for (int c = 0; c < 100; ++c) {
      const NodeId u = static_cast<NodeId>(rng.uniform_index(kN));
      const NodeId v = static_cast<NodeId>(rng.uniform_index(kN));
      if (u != v) edges.push_back({u, v});
    }
    graphs.push_back(Topology::from_edges(kN, edges));
  }
  for (const std::size_t budget : {std::size_t{128} << 10,
                                   std::size_t{1} << 20}) {
    SharedCostCache cache(EvalCacheConfig{.max_bytes = budget});
    std::size_t finds = 0;
    for (std::size_t round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        CostBreakdown out;
        ++finds;
        if (cache.find(graphs[i], out)) {
          EXPECT_EQ(out.existence, static_cast<double>(i));
        } else {
          cache.insert(graphs[i], feasible_breakdown(static_cast<double>(i)));
        }
        ASSERT_LE(cache.resident_bytes(), cache.max_bytes());
      }
    }
    const EvalCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, finds);
    EXPECT_LE(stats.inserts, stats.misses);
    EXPECT_EQ(cache.size(), stats.inserts - stats.evictions);
    if (budget < (std::size_t{1} << 20)) {
      EXPECT_EQ(stats.inserts, 0u);
      EXPECT_EQ(cache.resident_bytes(), 0u);
    } else {
      EXPECT_GT(cache.size(), 0u);
      EXPECT_GT(stats.evictions, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency stress — run under TSan in CI.
// ---------------------------------------------------------------------------

TEST(SharedCostCacheStress, EightThreadsOnCollidingShards) {
  // A small budget forces constant eviction churn: 512 distinct
  // topologies compete for ~5 entries per shard (1 KiB each). Each
  // topology's identity is encoded in its stored breakdown, so any
  // cross-entry corruption (a hit returning another graph's value) is
  // detected exactly.
  SharedCostCache cache(EvalCacheConfig{.max_bytes = 64 << 10});
  constexpr std::size_t kGraphs = 512;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 10'000;

  std::vector<Topology> graphs;
  graphs.reserve(kGraphs);
  for (std::size_t i = 0; i < kGraphs; ++i) {
    const NodeId u = static_cast<NodeId>(i / 32);
    const NodeId v = static_cast<NodeId>(32 + i % 32);
    graphs.push_back(Topology::from_edges(64, {{u, v}}));
  }

  std::atomic<std::size_t> finds{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::size_t local_finds = 0;
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        const std::size_t i = rng.uniform_index(kGraphs);
        CostBreakdown out;
        ++local_finds;
        if (cache.find(graphs[i], out)) {
          if (out.existence != static_cast<double>(i)) ++mismatches;
        } else {
          cache.insert(graphs[i], feasible_breakdown(static_cast<double>(i)));
        }
        if (op % 1024 == 0) {
          (void)cache.stats();  // aggregate reads race-free mid-churn
          (void)cache.size();
        }
      }
      finds += local_finds;
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const EvalCacheStats stats = cache.stats();
  // Per-shard counters are updated under the shard lock, so conservation is
  // exact even under maximal interleaving.
  EXPECT_EQ(stats.hits + stats.misses, finds.load());
  EXPECT_EQ(stats.inserts, stats.misses);  // every miss inserted exactly once
  EXPECT_LE(stats.evictions, stats.inserts);
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // churn actually happened
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
  engine.cache.shared = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  ASSERT_NE(eval.shared_cache(), nullptr);
  const Topology g = Topology::complete(8);

  eval.cost(g);  // miss; fills the shared cache
  Evaluator worker = eval.clone();
  EXPECT_EQ(worker.shared_cache(), eval.shared_cache());
  worker.cost(g);  // cross-instance hit — impossible with private caches
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
  ASSERT_NE(eval.shared_cache(), nullptr);
  EXPECT_EQ(eval.shared_cache()->resident_bytes(), 0u);
  Evaluator worker = eval.clone();
  EXPECT_EQ(worker.shared_cache()->resident_bytes(), 0u);

  const Topology g = Topology::complete(8);
  worker.cost(g);  // first insert allocates exactly one shard's arrays
  const std::size_t one = eval.shared_cache()->resident_bytes();
  EXPECT_GT(one, 0u);
  EXPECT_LE(one, eval.shared_cache()->max_bytes());
  eval.cost(g);  // a hit allocates nothing
  EXPECT_EQ(eval.shared_cache()->resident_bytes(), one);
  EXPECT_EQ(eval.cache_stats().hits, 1u);
}

TEST(SharedEvaluatorCache, SharedResultsAreBitIdentical) {
  const Context ctx = small_context(10, 6);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  engine.cache.shared = true;
  Evaluator shared_a(ctx.distances, ctx.traffic, kCosts, engine);
  Evaluator shared_b = shared_a.clone();
  Evaluator plain(ctx.distances, ctx.traffic, kCosts);

  Rng rng(3);
  Topology g = Topology::complete(10);
  for (int step = 0; step < 40; ++step) {
    const NodeId u = rng.uniform_index(10);
    const NodeId v = (u + 1 + rng.uniform_index(9)) % 10;
    g.set_edge(u, v, !g.has_edge(u, v));
    const CostBreakdown want = plain.breakdown(g);
    // Alternate which instance evaluates first: whoever comes second should
    // often hit the shared entry, and must match exactly either way.
    Evaluator& first = (step % 2 == 0) ? shared_a : shared_b;
    Evaluator& second = (step % 2 == 0) ? shared_b : shared_a;
    ASSERT_EQ(first.breakdown(g).total(), want.total());
    ASSERT_EQ(second.breakdown(g).total(), want.total());
    ASSERT_EQ(second.breakdown(g).existence, want.existence);
    ASSERT_EQ(second.breakdown(g).bandwidth, want.bandwidth);
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

ComboOutput run_combo(std::size_t pops, std::uint64_t seed, int cache_mode,
                      bool dedup, std::size_t threads, bool heuristics) {
  SynthesisConfig cfg;
  cfg.context.num_pops = pops;
  cfg.seed_with_heuristics = heuristics;
  cfg.ga.population = 10;
  cfg.ga.generations = 3;
  cfg.ga.dedup = dedup;
  cfg.ga.parallel.num_threads = threads;
  cfg.engine.cache.enabled = cache_mode != 0;
  cfg.engine.cache.shared = cache_mode == 2;

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
  // >= 50 random trials; each runs all 24 engine combinations and demands
  // byte-identical timing-free telemetry. Most trials skip heuristic
  // seeding to keep the suite fast; a handful keep it on so the heuristics
  // phase is covered too.
  constexpr int kTrials = 55;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t pops = 8 + trial % 5;
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    const bool heuristics = trial >= kTrials - 5;

    const ComboOutput reference =
        run_combo(pops, seed, /*cache_mode=*/0, /*dedup=*/false,
                  /*threads=*/1, heuristics);
    ASSERT_FALSE(reference.trace.empty());
    for (const int cache_mode : {0, 1, 2}) {
      for (const bool dedup : {false, true}) {
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
          if (cache_mode == 0 && !dedup && threads == 1) continue;
          const ComboOutput got =
              run_combo(pops, seed, cache_mode, dedup, threads, heuristics);
          const std::string label =
              "trial=" + std::to_string(trial) +
              " cache=" + std::to_string(cache_mode) +
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
