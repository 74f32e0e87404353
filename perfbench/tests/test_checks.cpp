// Output checks and the result line.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "checks.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "result_line.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

cold::SynthesisConfig small_config() {
  cold::SynthesisConfig cfg;
  cfg.context.num_pops = 10;
  cfg.costs = {.k0 = 10, .k1 = 1, .k2 = 4e-4, .k3 = 10};
  cfg.ga.population = 12;
  cfg.ga.generations = 6;
  cfg.ga.parallel.num_threads = 1;
  return cfg;
}

}  // namespace

TEST(CheckSynthesis, AcceptsARealRun) {
  const cold::SynthesisConfig cfg = small_config();
  const cold::SynthesisResult r = cold::Synthesizer(cfg).synthesize(3);
  EXPECT_EQ(pb::check_synthesis(r, cfg), "");
}

TEST(CheckSynthesis, CatchesTamperedOutputs) {
  const cold::SynthesisConfig cfg = small_config();
  const cold::SynthesisResult good = cold::Synthesizer(cfg).synthesize(3);

  cold::SynthesisResult cost_drift = good;
  cost_drift.ga.best_cost = std::nextafter(good.ga.best_cost, 0.0);
  EXPECT_NE(pb::check_synthesis(cost_drift, cfg).find("re-score"),
            std::string::npos);

  cold::SynthesisResult disconnected = good;
  disconnected.network.topology = cold::Topology(cfg.context.num_pops);
  EXPECT_NE(pb::check_synthesis(disconnected, cfg), "");

  cold::SynthesisResult beaten = good;
  beaten.heuristics.front().cost = good.ga.best_cost / 2.0;
  EXPECT_NE(pb::check_synthesis(beaten, cfg).find("heuristic"),
            std::string::npos);

  cold::SynthesisResult missing = good;
  missing.heuristics.clear();
  EXPECT_NE(pb::check_synthesis(missing, cfg), "");
}

TEST(CheckEnsemble, CountAndFiniteAggregates) {
  const cold::SynthesisConfig cfg = small_config();
  const cold::Synthesizer synth(cfg);
  cold::EnsembleOptions options;
  options.count = 3;
  options.base_seed = 5;
  cold::EnsembleResult e = cold::generate_ensemble(synth, options);
  EXPECT_EQ(pb::check_ensemble(e, 3), "");
  EXPECT_NE(pb::check_ensemble(e, 4), "");
  e.stopped_early = true;
  EXPECT_NE(pb::check_ensemble(e, 3), "");
}

TEST(Digest, DependsOnCostBitsAndEdges) {
  cold::Topology a(4);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  cold::Topology b = a;
  EXPECT_EQ(pb::digest_of(1.5, a), pb::digest_of(1.5, b));
  b.add_edge(2, 3);
  EXPECT_NE(pb::edge_hash(a), pb::edge_hash(b));
  EXPECT_NE(pb::digest_of(1.5, a), pb::digest_of(std::nextafter(1.5, 2.0), a));
  EXPECT_TRUE(pb::same_bits(1.0, 1.0));
  EXPECT_FALSE(pb::same_bits(0.0, -0.0));
}

TEST(Workloads, SeedsAndEngineDefaults) {
  EXPECT_EQ(pb::network_seed(7, 0), pb::kCanarySeed);
  EXPECT_EQ(pb::network_seed(7, 1), pb::network_seed(7, 1));
  EXPECT_NE(pb::network_seed(7, 1), pb::network_seed(8, 1));
  EXPECT_NE(pb::network_seed(7, 1), pb::network_seed(7, 2));
  EXPECT_THROW(pb::find_workload("nope"), std::invalid_argument);
  // Workloads set problem inputs only; engine knobs keep library defaults.
  for (const pb::Workload& wl : pb::workloads()) {
    const cold::SynthesisConfig cfg = pb::synthesis_config(wl, wl.threads);
    EXPECT_EQ(cfg.engine, cold::EvalEngineConfig{}) << wl.name;
    EXPECT_EQ(cfg.ga.dedup, cold::GaConfig{}.dedup) << wl.name;
    EXPECT_EQ(cfg.ga.affinity, cold::GaConfig{}.affinity) << wl.name;
    EXPECT_LE(cfg.ga.parallel.num_threads, 4u);
    EXPECT_LE(cfg.parallel.num_threads, 4u);
  }
}

TEST(ResultLine, ExactKeysAndFullPrecision) {
  const std::string line = pb::result_line(
      true, 3, 1,
      {{"a", 0.1, "s"}, {"b", std::numeric_limits<double>::infinity(), "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
            "{\"a\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}, "
            "\"b\": {\"value\": null, \"unit\": \"ms\"}}}");
}
