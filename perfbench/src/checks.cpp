#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "cost/evaluator.h"
#include "graph/algorithms.h"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  // FNV-1a over the 8 bytes of x.
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

std::string describe(const char* what, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s (%.17g vs %.17g)", what, a, b);
  return buf;
}

bool same_ga(const cold::GaResult& a, const cold::GaResult& b) {
  if (!same_bits(a.best_cost, b.best_cost) || !(a.best == b.best)) {
    return false;
  }
  if (a.best_cost_history.size() != b.best_cost_history.size()) return false;
  for (std::size_t i = 0; i < a.best_cost_history.size(); ++i) {
    if (!same_bits(a.best_cost_history[i], b.best_cost_history[i])) {
      return false;
    }
  }
  return true;
}

bool same_heuristics(const std::vector<cold::HeuristicResult>& a,
                     const std::vector<cold::HeuristicResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].cost, b[i].cost) ||
        !(a[i].topology == b[i].topology)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

CheckFailure check_synthesis(const cold::SynthesisResult& r,
                             const cold::SynthesisConfig& cfg) {
  const cold::Topology& best = r.ga.best;
  if (!std::isfinite(r.ga.best_cost)) return "best cost is not finite";
  if (!cold::is_connected(r.network.topology)) return "network is disconnected";
  if (!(r.network.topology == best)) {
    return "network topology differs from the GA winner";
  }
  cold::Evaluator fresh(r.context.distances, r.context.traffic, cfg.costs);
  const double rescored = fresh.evaluate(best).total();
  if (!same_bits(rescored, r.ga.best_cost)) {
    return describe("fresh re-score differs from best_cost", rescored,
                    r.ga.best_cost);
  }
  if (cfg.seed_with_heuristics != !r.heuristics.empty()) {
    return "heuristic results do not match seed_with_heuristics";
  }
  for (const cold::HeuristicResult& h : r.heuristics) {
    if (!(r.ga.best_cost <= h.cost)) {
      return describe(("best cost above heuristic " + h.name).c_str(),
                      r.ga.best_cost, h.cost);
    }
  }
  return {};
}

CheckFailure check_fidelity(const cold::SynthesisResult& ref,
                            const TracedNetwork& t) {
  const std::string who = std::to_string(t.ga_threads) + "-thread traced run";
  if (!same_ga(ref.ga, t.ga)) {
    return who + ": GA result differs from synthesize()";
  }
  if (!same_heuristics(ref.heuristics, t.heuristics)) {
    return who + ": heuristic results differ from synthesize()";
  }
  if (!same_bits(ref.cost.total(), t.assembled_cost)) {
    return who + ": assembled cost differs from synthesize()";
  }
  if (!t.network_connected) return who + ": network is disconnected";
  return {};
}

CheckFailure check_ensemble(const cold::EnsembleResult& e,
                            std::size_t expected_runs) {
  if (e.stopped_early) return "ensemble stopped early";
  if (e.num_runs() != expected_runs) {
    return "ensemble produced " + std::to_string(e.num_runs()) + " of " +
           std::to_string(expected_runs) + " runs";
  }
  const cold::EnsembleAggregates& a = e.aggregates();
  if (a.runs != expected_runs) return "aggregates count the wrong run total";
  for (const cold::MetricAggregate* m :
       {&a.avg_degree, &a.diameter, &a.clustering, &a.degree_cv, &a.hubs,
        &a.assortativity, &a.best_cost}) {
    if (m->count != expected_runs) return "an aggregate missed runs";
    for (const double v : {m->mean, m->m2, m->min, m->max}) {
      if (!std::isfinite(v)) return "an aggregate is not finite";
    }
  }
  return {};
}

std::uint64_t edge_hash(const cold::Topology& g) {
  std::vector<cold::Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end());
  std::uint64_t h = mix(kFnvBasis, g.num_nodes());
  for (const cold::Edge& e : edges) {
    h = mix(mix(h, e.u), e.v);
  }
  return h;
}

Digest digest_of(double best_cost, const cold::Topology& best) {
  return {std::bit_cast<std::uint64_t>(best_cost), edge_hash(best)};
}

Digest digest_of(const cold::EnsembleResult& e) {
  Digest d{std::bit_cast<std::uint64_t>(e.acc.best_cost()), kFnvBasis};
  if (e.acc.retains_runs()) {
    for (const cold::SynthesisResult& r : e.runs()) {
      d.edges = mix(mix(d.edges, std::bit_cast<std::uint64_t>(r.ga.best_cost)),
                    edge_hash(r.ga.best));
    }
  }
  return d;
}

std::string to_string(const Digest& d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "{0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(d.cost_bits),
                static_cast<unsigned long long>(d.edges));
  return buf;
}

}  // namespace perfbench
