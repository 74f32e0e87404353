#include "layer_metrics.h"

#include <cstdio>

namespace perfbench {

namespace {

template <typename F>
double median_of(const std::vector<TracedNetwork>& ts, F f) {
  std::vector<double> xs;
  for (const TracedNetwork& t : ts) xs.push_back(static_cast<double>(f(t)));
  return xs.empty() ? 0.0 : median(xs);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_or_zero(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : median(xs);
}

const HeuristicStep* find_step(const TracedNetwork& t,
                               const std::string& name) {
  for (const HeuristicStep& h : t.heuristic_steps) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

std::vector<Metric> layer_metrics(const TracedRun& run,
                                  const BurnReading& burn_start,
                                  const BurnReading& burn_end,
                                  const FailureCount& failures) {
  using T = TracedNetwork;
  const std::vector<T>& mains = run.mains;

  std::vector<double> gen_ms;
  std::vector<double> cost_us;
  double repeats = 0.0, calls = 0.0;
  double cache_hits = 0.0, cache_lookups = 0.0;
  double dsssp_hits = 0.0, dsssp_probes = 0.0;
  for (const T& t : mains) {
    gen_ms.insert(gen_ms.end(), t.gen_ms.begin(), t.gen_ms.end());
    cost_us.insert(cost_us.end(), t.cost_us.begin(), t.cost_us.end());
    repeats += static_cast<double>(t.repeat_calls);
    calls += static_cast<double>(t.cost_us.size());
    cache_hits += static_cast<double>(t.cache.hits);
    cache_lookups += static_cast<double>(t.cache.lookups());
    dsssp_hits += static_cast<double>(t.delta.hits);
    dsssp_probes += static_cast<double>(t.delta.hits + t.delta.fallbacks);
  }
  const Summary cost_sum = summarize(cost_us);

  // The same seed at 1 and at k GA threads: efficiency = T1 / (k * Tk), where
  // k is the workload's thread count (2 on paper-n30, 4 elsewhere).
  const auto efficiency = [&run](double (*phase_s)(const T&)) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < run.mains.size(); ++i) {
      const bool main_is_one = run.main_threads == 1;
      const T& one = main_is_one ? run.mains[i] : run.others[i];
      const T& many = main_is_one ? run.others[i] : run.mains[i];
      const double t_many = phase_s(many);
      xs.push_back(ratio(phase_s(one),
                         static_cast<double>(many.ga_threads) * t_many));
    }
    return median_or_zero(xs);
  };
  std::vector<double> overhead;
  for (std::size_t i = 0; i < mains.size(); ++i) {
    overhead.push_back(mains[i].wall_s / run.untraced_s[i] - 1.0);
  }

  const auto med = [&mains](auto f) { return median_of(mains, f); };
  std::vector<Metric> m = {
      {"context.gen_s", med([](const T& t) { return t.context_s; }), "s"},
      {"context.traffic_nnz", med([](const T& t) { return t.traffic_nnz; }),
       "count"},
      {"context.bytes", med([](const T& t) { return t.context_bytes; }),
       "bytes"},
      {"heuristics.s", med([](const T& t) { return t.heuristics_s; }), "s"},
      {"heuristics.share",
       med([](const T& t) { return t.heuristics_s / t.wall_s; }), "ratio",
       "of the traced pipeline's wall"},
      {"heuristics.eval_us", med([](const T& t) {
         return ratio(t.heuristics_s * 1e6,
                      static_cast<double>(t.heuristic_evals));
       }),
       "us", "heuristics wall over evaluations"},
  };
  for (const std::string name :
       {"random_greedy", "complete", "mst", "greedy_attachment"}) {
    const std::string key = "heuristics." + name;
    m.emplace_back(key + ".s", med([&](const T& t) {
                     const HeuristicStep* h = find_step(t, name);
                     return h != nullptr ? h->s : 0.0;
                   }),
                   "s");
    m.emplace_back(key + ".evals", med([&](const T& t) {
                     const HeuristicStep* h = find_step(t, name);
                     return h != nullptr ? static_cast<double>(h->evals) : 0.0;
                   }),
                   "count");
  }
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%g of %zu GA cost() calls",
                cost_sum.tail_pct, cost_sum.count);
  const std::vector<Metric> rest = {
      {"ga.s", med([](const T& t) { return t.ga_s; }), "s"},
      {"ga.share", med([](const T& t) { return t.ga_s / t.wall_s; }),
       "ratio"},
      {"ga.evals", med([](const T& t) { return t.ga.evaluations; }), "count"},
      {"ga.gen_ms.p50", median_or_zero(gen_ms), "ms",
       "n=" + std::to_string(gen_ms.size())},
      {"ga.scoring_s", med([](const T& t) { return t.scoring_s; }), "s",
       "inside cost(), summed over workers"},
      {"ga.serial_s", med([](const T& t) { return t.ga_s - t.pass_wall_s; }),
       "s", "GA wall outside scoring passes"},
      {"ga.repairs", med([](const T& t) { return t.ga.repairs; }), "count"},
      {"ga.links_repaired", med([](const T& t) { return t.ga.links_repaired; }),
       "count"},
      {"ga.repeat_share", ratio(repeats, calls), "ratio",
       "GA cost() calls on an edge set already scored in that run"},
      {"pool.busy_frac", med([](const T& t) {
         return ratio(t.scoring_s,
                      static_cast<double>(t.ga_threads) * t.pass_wall_s);
       }),
       "ratio"},
      {"pool.steals", med([](const T& t) { return t.ga.steals; }), "count"},
      {"cost.eval_us.p50", cost_sum.p50, "us",
       "n=" + std::to_string(cost_sum.count)},
      {"cost.eval_us.tail", cost_sum.tail, "us", tail_note},
      {"cost.eval_us.tail_pct", cost_sum.tail_pct, "%",
       "0 = fewer than 20 calls"},
      {"cost.cache_hit_rate", ratio(cache_hits, cache_lookups), "ratio",
       "base: lookups"},
      {"cost.dedup_skipped", med([](const T& t) { return t.dedup_skipped; }),
       "count"},
      {"cost.dsssp_hit_rate", ratio(dsssp_hits, dsssp_probes), "ratio",
       "base: hits + fallbacks"},
      {"cost.vertices_resettled",
       med([](const T& t) { return t.delta.vertices_resettled; }), "count"},
      {"graph.sssp_us", med([](const T& t) { return t.sssp_us; }), "us",
       "per source, on the winner"},
      {"graph.relax_per_s", med([](const T& t) { return t.relax_per_s; }),
       "1/s"},
      {"net.build_s", med([](const T& t) { return t.build_s; }), "s"},
      {"ensemble.cpu_util", run.ensemble_cpu_util, "ratio"},
      {"ensemble.cpu_s_per_network", run.ensemble_cpu_per_network, "s"},
      {"process.cpu_util", median_or_zero(run.cpu_util), "ratio"},
      {"scale.eff.heuristics",
       efficiency([](const T& t) { return t.heuristics_s; }), "ratio"},
      {"scale.eff.ga", efficiency([](const T& t) { return t.ga_s; }),
       "ratio"},
      {"host.burn_ms",
       (burn_start.one_thread_ms + burn_end.one_thread_ms) / 2.0, "ms",
       "1 thread, mean of start and end"},
      {"host.burn_ms.4t",
       (burn_start.four_threads_ms + burn_end.four_threads_ms) / 2.0, "ms",
       "slowest of 4 threads, mean of start and end"},
      {"trace.overhead", median_or_zero(overhead), "ratio",
       "traced / untraced synthesize wall - 1"},
      {"failed_frac", failures.fraction(), "ratio",
       std::to_string(failures.failed) + " of " +
           std::to_string(failures.attempted) + " networks"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::map<std::string, double> self_time_by_layer(
    const SpanLog& log, const std::vector<TracedNetwork>& mains) {
  const std::vector<std::int64_t> self = self_times_ns(log.spans());
  std::map<std::uint32_t, std::map<std::string, double>> per_network;
  std::map<std::string, std::vector<double>> per_layer;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    per_network[s.network][s.cat] += static_cast<double>(self[i]) * 1e-9;
  }
  for (const TracedNetwork& t : mains) {
    for (const auto& [layer, s] : per_network[t.network_id]) {
      per_layer[layer].push_back(s);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [layer, xs] : per_layer) out[layer] = median(xs);
  return out;
}

}  // namespace perfbench
