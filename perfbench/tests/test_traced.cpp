// The traced run: its recomposed pipeline must reproduce
// Synthesizer::synthesize, and its per-layer metrics must be the ones
// BENCHMARK.json promises.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "layer_metrics.h"
#include "spans.h"
#include "traced.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

pb::Workload tiny() {
  pb::Workload w;
  w.name = "tiny";
  w.pops = 12;
  w.population = 12;
  w.generations = 5;
  w.threads = 4;
  return w;
}

/// per_layer metric names from BENCHMARK.json, in file order.
std::vector<std::string> promised_per_layer() {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const std::size_t at = json.find("\"per_layer\"");
  std::vector<std::string> names;
  if (at == std::string::npos) return names;
  const std::regex name_re("\"name\": \"([^\"]+)\"");
  for (std::sregex_iterator it(json.begin() + static_cast<std::ptrdiff_t>(at),
                               json.end(), name_re),
       end;
       it != end; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

}  // namespace

TEST(Traced, ReproducesSynthesizeAtOneAndFourThreads) {
  const pb::Workload w = tiny();
  const cold::SynthesisResult ref =
      cold::Synthesizer(pb::synthesis_config(w, 4)).synthesize(9);
  pb::SpanLog log;
  std::uint32_t id = 0;
  for (const std::size_t threads : {1u, 4u}) {
    const pb::TracedNetwork t = pb::run_traced(w, 9, threads, log, id++);
    EXPECT_EQ(pb::check_fidelity(ref, t), "") << threads << " threads";
    EXPECT_EQ(t.heuristic_steps.size(), 4u);
    EXPECT_EQ(t.cost_us.size(), t.ga.evaluations);  // dedup is off by default
    EXPECT_GT(t.wall_s, 0.0);
    EXPECT_LE(t.heuristics_s + t.ga_s, t.wall_s);
    EXPECT_EQ(t.gen_ms.size(), w.generations);
  }
  // A different seed is a different network: the check must notice.
  const cold::SynthesisResult other =
      cold::Synthesizer(pb::synthesis_config(w, 4)).synthesize(10);
  const pb::TracedNetwork t = pb::run_traced(w, 9, 4, log, id++);
  EXPECT_NE(pb::check_fidelity(other, t), "");

  for (const std::int64_t s : pb::self_times_ns(log.spans())) EXPECT_GE(s, 0);
}

TEST(Traced, NoHeuristicSpansWhenHeuristicsAreOff) {
  pb::Workload w = tiny();
  w.heuristics = false;
  pb::SpanLog log;
  const pb::TracedNetwork t = pb::run_traced(w, 3, 4, log, 0);
  EXPECT_EQ(t.heuristics_s, 0.0);
  for (const pb::Span& s : log.spans()) EXPECT_NE(s.cat, "heuristics");
}

TEST(LayerMetrics, MatchBenchmarkJson) {
  const pb::Workload w = tiny();
  pb::SpanLog log;
  pb::TracedRun run;
  run.main_threads = 4;
  run.mains.push_back(pb::run_traced(w, 5, 4, log, 0));
  run.others.push_back(pb::run_traced(w, 5, 1, log, 1));
  run.untraced_s.push_back(run.mains[0].wall_s);
  pb::FailureCount failures;
  failures.record(true);
  const std::vector<pb::Metric> metrics =
      pb::layer_metrics(run, {}, {}, failures);
  std::vector<std::string> names;
  for (const pb::Metric& m : metrics) names.push_back(m.name);
  EXPECT_EQ(names, promised_per_layer());
  for (const pb::Metric& m : metrics) {
    if (m.name == "ga.evals") {
      EXPECT_EQ(m.value, static_cast<double>(run.mains[0].ga.evaluations));
    } else if (m.name == "trace.overhead" || m.name == "failed_frac") {
      EXPECT_EQ(m.value, 0.0);
    }
  }
  const auto layers = pb::self_time_by_layer(log, run.mains);
  EXPECT_TRUE(layers.count("cost"));
  EXPECT_TRUE(layers.count("ga"));
}
