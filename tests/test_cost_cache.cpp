#include "cost/cost_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/context.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "util/rng.h"

namespace cold {
namespace {

// CostCache::find as an optional, for terse assertions.
std::optional<CostBreakdown> lookup(CostCache& cache, const Topology& g,
                                    std::uint64_t salt = 0) {
  CostBreakdown out;
  if (!cache.find(g, out, salt)) return std::nullopt;
  return out;
}

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

// `count` distinct single-edge graphs on 64 nodes whose fingerprints select
// the same cache set, with every pair index u * 64 + v in [256, 16384) so
// each encodes in exactly 2 bytes.
std::vector<Topology> same_set_graphs(std::size_t count) {
  std::vector<Topology> out;
  for (NodeId u = 4; u < 64 && out.size() < count; ++u) {
    for (NodeId v = u + 1; v < 64 && out.size() < count; ++v) {
      Topology g = Topology::from_edges(64, {{u, v}});
      if (out.empty() || cache_detail::set_index(g.fingerprint()) ==
                             cache_detail::set_index(out[0].fingerprint())) {
        out.push_back(std::move(g));
      }
    }
  }
  return out;
}

TEST(CostCache, MissThenHitWithCounters) {
  CostCache cache(EvalCacheConfig{});
  const Topology g = Topology::from_edges(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(lookup(cache, g), std::nullopt);
  cache.insert(g, feasible_breakdown(20.0));
  const std::optional<CostBreakdown> hit = lookup(cache, g);
  ASSERT_NE(hit, std::nullopt);
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
  CostCache cache(EvalCacheConfig{});
  const Topology a = Topology::from_edges(4, {{0, 1}});
  const Topology b = Topology::from_edges(5, {{0, 1}});
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  cache.insert(a, feasible_breakdown(1.0));
  EXPECT_EQ(lookup(cache, b), std::nullopt);
  EXPECT_EQ(cache.stats().misses, 1u);
  const std::optional<CostBreakdown> hit = lookup(cache, a);
  ASSERT_NE(hit, std::nullopt);
  EXPECT_DOUBLE_EQ(hit->existence, 1.0);
}

TEST(CostCache, VerificationRejectsForgedKeyWithEqualShape) {
  // Two graphs with equal n and m but different edges, forced onto one key
  // through the salt: only the encoded edge sets tell them apart.
  CostCache cache(EvalCacheConfig{});
  const Topology a = Topology::from_edges(40, {{0, 1}, {2, 39}, {7, 8}});
  const Topology b = Topology::from_edges(40, {{0, 1}, {2, 38}, {7, 8}});
  const std::uint64_t salt_b = a.fingerprint() ^ b.fingerprint();
  ASSERT_EQ(a.fingerprint(), b.fingerprint() ^ salt_b);
  cache.insert(a, feasible_breakdown(1.0));
  EXPECT_EQ(lookup(cache, b, salt_b), std::nullopt);
  EXPECT_EQ(cache.stats().misses, 1u);
  ASSERT_NE(lookup(cache, a), std::nullopt);
  EXPECT_DOUBLE_EQ(lookup(cache, a)->existence, 1.0);
}

TEST(CostCache, StoresSummariesExactly) {
  // Entries keep the two summaries only when set; either way a hit returns
  // the stored breakdown field for field.
  CostCache cache(EvalCacheConfig{});
  const Topology plain = Topology::from_edges(5, {{0, 1}, {1, 2}});
  const Topology rich = Topology::from_edges(5, {{0, 1}, {3, 4}});
  CostBreakdown b = feasible_breakdown(3.0);
  b.resilience = 0.25;
  b.resilience_summary.scenarios = 7;
  b.resilience_summary.worst_stretch = 1.5;
  b.multipath_summary.max_utilization = 2.0 / 3.0;
  cache.insert(plain, feasible_breakdown(4.0));
  cache.insert(rich, b);
  const std::optional<CostBreakdown> got = lookup(cache, rich);
  ASSERT_NE(got, std::nullopt);
  EXPECT_EQ(got->existence, 3.0);
  EXPECT_EQ(got->resilience, 0.25);
  EXPECT_EQ(got->resilience_summary, b.resilience_summary);
  EXPECT_EQ(got->multipath_summary, b.multipath_summary);
  const std::optional<CostBreakdown> bare = lookup(cache, plain);
  ASSERT_NE(bare, std::nullopt);
  EXPECT_EQ(bare->resilience_summary, ResilienceSummary{});
  EXPECT_EQ(bare->multipath_summary, MultipathSummary{});
}

TEST(CostCache, ChurnKeepsResidentEntriesIntact) {
  // A small budget forces evictions and tail packing in every set; each
  // hit must still return its own topology's terms and summaries.
  CostCache cache(EvalCacheConfig{.max_bytes = cache_detail::kSets * 600});
  std::vector<Topology> graphs;
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = u + 1; v < 40; v += 3) {
      graphs.push_back(Topology::from_edges(40, {{u, v}, {0, 39}}));
    }
  }
  const auto stored = [](std::size_t i) {
    CostBreakdown b = feasible_breakdown(static_cast<double>(i));
    if (i % 2 == 0) b.resilience_summary.scenarios = i;  // tails vary
    return b;
  };
  std::size_t hits = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      if (const std::optional<CostBreakdown> got = lookup(cache, graphs[i])) {
        ++hits;
        ASSERT_EQ(got->existence, static_cast<double>(i));
        ASSERT_EQ(got->resilience_summary, stored(i).resilience_summary);
      } else {
        cache.insert(graphs[i], stored(i));
      }
      ASSERT_LE(cache.resident_bytes(), cache.max_bytes());
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), cache.stats().inserts - cache.stats().evictions);
}

TEST(CostCache, AllocatesNothingBeforeFirstInsert) {
  CostCache cache(EvalCacheConfig{});
  EXPECT_EQ(cache.resident_bytes(), 0u);
  const Topology g = Topology::from_edges(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(lookup(cache, g), std::nullopt);
  EXPECT_EQ(cache.resident_bytes(), 0u);  // a miss allocates nothing
  cache.insert(g, feasible_breakdown(1.0));
  EXPECT_GT(cache.resident_bytes(), 0u);
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
}

TEST(CostCache, EntryLargerThanASetIsNotStored) {
  // A 64-byte budget leaves each set one byte: no entry fits, so inserts
  // store nothing, count nothing and allocate nothing.
  CostCache cache(EvalCacheConfig{.max_bytes = cache_detail::kSets});
  const Topology g = Topology::from_edges(4, {{0, 1}});
  const cache_detail::InsertResult r = cache.insert(g, feasible_breakdown(1));
  EXPECT_FALSE(r.stored);
  EXPECT_EQ(r.evicted, 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(lookup(cache, g), std::nullopt);
}

TEST(CostCache, OverwritesInPlace) {
  CostCache cache(EvalCacheConfig{});
  const Topology g = Topology::from_edges(3, {{0, 1}});
  cache.insert(g, feasible_breakdown(1.0));
  cache.insert(g, feasible_breakdown(2.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().inserts, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_DOUBLE_EQ(lookup(cache, g)->existence, 2.0);
}

TEST(CostCache, LruEvictsLeastRecentlyUsed) {
  // Five single-edge graphs that land in one set, each encoded in 2 bytes
  // (pair index u * n + v >= 128), under a budget that holds exactly four
  // of them per set: all five compete and the LRU policy is observable.
  const std::vector<Topology> graphs = same_set_graphs(5);
  constexpr std::size_t kSetBudget =
      4 * cache_detail::EntrySet::kSlotBytes + 4 * 2;
  CostCache cache(EvalCacheConfig{.max_bytes = cache_detail::kSets *
                                               kSetBudget});
  ASSERT_EQ(cache.max_bytes(), cache_detail::kSets * kSetBudget);
  for (int i = 0; i < 4; ++i) {
    cache.insert(graphs[i], feasible_breakdown(i));
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  ASSERT_NE(lookup(cache, graphs[0]), std::nullopt);  // freshen graph 0
  cache.insert(graphs[4], feasible_breakdown(4.0));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
  // The LRU entry was evicted.
  EXPECT_EQ(lookup(cache, graphs[1]), std::nullopt);
  EXPECT_NE(lookup(cache, graphs[0]), std::nullopt);
  EXPECT_NE(lookup(cache, graphs[2]), std::nullopt);
  EXPECT_NE(lookup(cache, graphs[3]), std::nullopt);
  EXPECT_NE(lookup(cache, graphs[4]), std::nullopt);
}

TEST(CostCache, EvictionKeepsConservationInvariants) {
  // A 64 KiB budget gives each of the 64 shards 1 KiB, a handful of
  // entries; inserting every single-edge topology of K_70 (2415 distinct
  // graphs) must evict, stay within the byte budget, and keep
  // size == inserts - evictions (all graphs distinct, so no overwrites).
  CostCache cache(EvalCacheConfig{.max_bytes = 64 << 10});
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

TEST(CostCache, InsertStormAtN2000StaysUnderByteBudget) {
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
    CostCache cache(EvalCacheConfig{.max_bytes = budget});
    std::size_t finds = 0;
    for (std::size_t round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        ++finds;
        if (const std::optional<CostBreakdown> got =
                lookup(cache, graphs[i])) {
          EXPECT_EQ(got->existence, static_cast<double>(i));
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

// Concurrency stress — run under TSan in CI.
TEST(CostCacheStress, EightThreadsOnCollidingShards) {
  // A small budget forces constant eviction churn: 512 distinct
  // topologies compete for ~5 entries per shard (1 KiB each). Each
  // topology's identity is encoded in its stored breakdown, so any
  // cross-entry corruption (a hit returning another graph's value) is
  // detected exactly.
  CostCache cache(EvalCacheConfig{.max_bytes = 64 << 10});
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
    const CostBreakdown want = plain.evaluate(g).breakdown;
    const CostBreakdown got = cached.evaluate(g).breakdown;
    ASSERT_EQ(got.feasible, want.feasible);
    ASSERT_EQ(got.total(), want.total());  // exact, no tolerance
    ASSERT_EQ(got.existence, want.existence);
    ASSERT_EQ(got.bandwidth, want.bandwidth);
    // Evaluate twice more so later iterations hit the cache.
    ASSERT_EQ(cached.evaluate(g).total(), want.total());
    ASSERT_EQ(cached.evaluate(g).total(), want.total());
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
  EXPECT_FALSE(eval.evaluate(disconnected).feasible());
  EXPECT_FALSE(eval.evaluate(disconnected).feasible());
  EXPECT_EQ(eval.cache_stats().hits, 1u);
}

TEST(EvaluatorCache, CloneMergeFoldsCacheStats) {
  const Context ctx = small_context(8, 5);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const Topology g = Topology::complete(8);

  Evaluator worker = eval.clone();
  worker.cost(g);  // miss; fills the cache the two instances share
  worker.cost(g);  // hit
  EXPECT_EQ(worker.cache_stats().hits, 1u);

  eval.cost(g);  // the worker's entry serves the original: hit
  EXPECT_EQ(eval.cache_stats().misses, 0u);
  EXPECT_EQ(eval.cache_stats().hits, 1u);

  eval.merge_stats(worker);
  EXPECT_EQ(eval.evaluations(), 3u);
  EXPECT_EQ(eval.cache_stats().hits, 2u);
  EXPECT_EQ(eval.cache_stats().misses, 1u);
  // Transfer semantics: merging is idempotent per unit of work.
  EXPECT_EQ(worker.cache_stats(), EvalCacheStats{});
  eval.merge_stats(worker);
  EXPECT_EQ(eval.cache_stats().hits, 2u);
  EXPECT_EQ(eval.evaluations(), 3u);
}

TEST(EvaluatorLoads, LastLoadsRequiresFreshFeasibleRouting) {
  const Context ctx = small_context(6, 6);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const Topology ring = Topology::from_edges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  const EvalResult routed = eval.evaluate(ring, {.want_loads = true});
  ASSERT_TRUE(routed.feasible());
  EXPECT_TRUE(routed.loads_valid);
  EXPECT_EQ(routed.loads.value.size(), ring.num_edges());

  // An infeasible evaluation leaves partial loads: they must not be served.
  const Topology disconnected = Topology::from_edges(6, {{0, 1}});
  const EvalResult cut = eval.evaluate(disconnected, {.want_loads = true});
  ASSERT_FALSE(cut.feasible());
  EXPECT_FALSE(cut.loads_valid);
  EXPECT_TRUE(cut.loads.value.empty());

  // Loads only come when asked for: a plain evaluation (a cache hit here,
  // so routing is skipped) returns none.
  const EvalResult hit = eval.evaluate(ring);
  ASSERT_TRUE(hit.feasible());
  EXPECT_FALSE(hit.loads_valid);
  EXPECT_TRUE(hit.loads.value.empty());
  EXPECT_EQ(eval.cache_stats().hits, 1u);
}

TEST(EvaluatorLoads, WantLoadsRoutesEvenWhenCached) {
  // With the cache on (the default), asking for loads must never come back
  // empty because the topology is resident: the evaluation skips the
  // probe, routes, and refreshes the entry.
  const Context ctx = small_context(9, 8);
  Evaluator eval(ctx.distances, ctx.traffic, kCosts);
  const Topology g = Topology::complete(9);
  const EvalResult first = eval.evaluate(g, {.want_loads = true});
  const EvalResult second = eval.evaluate(g, {.want_loads = true});
  ASSERT_TRUE(first.loads_valid);
  ASSERT_TRUE(second.loads_valid);
  ASSERT_EQ(first.loads.value.size(), g.num_edges());
  ASSERT_EQ(second.loads.value.size(), g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first.loads.value[e]),
              std::bit_cast<std::uint64_t>(second.loads.value[e]))
        << e;
  }
  EXPECT_EQ(first.total(), second.total());
  // The refreshed entry serves a plain evaluation; conservation holds.
  const EvalResult hit = eval.evaluate(g);
  EXPECT_FALSE(hit.loads_valid);
  EXPECT_EQ(hit.total(), first.total());
  const EvalCacheStats stats = eval.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.hits + stats.misses, eval.evaluations());
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
