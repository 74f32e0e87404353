#include "heuristics/hub_heuristics.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>

#include "graph/algorithms.h"
#include "util/thread_pool.h"

namespace cold {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Growing hub set plus the explicit links among hubs.
struct HubState {
  std::vector<NodeId> hubs;
  std::vector<Edge> hub_links;

  bool is_hub(NodeId v) const {
    return std::find(hubs.begin(), hubs.end(), v) != hubs.end();
  }
};

Topology realize(const HubState& state, std::size_t n,
                 const DistanceProvider& lengths) {
  return build_hub_topology(n, state.hubs, state.hub_links, lengths);
}

// Cheapest-by-distance existing hub for a new node.
NodeId nearest_hub(const HubState& state, NodeId v,
                   const DistanceProvider& lengths) {
  NodeId best = state.hubs.front();
  for (NodeId h : state.hubs) {
    if (lengths(v, h) < lengths(v, best)) best = h;
  }
  return best;
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Scores one greedy step's candidates, in parallel when more than one thread
// is configured. Worker 0 is the caller's evaluator and workers 1..k-1 are
// its clones (sharing the context, and the cache when it is shared); at one
// thread there are no clones and no pool, and candidates are scored inline
// in index order, exactly as the serial walk does. Each candidate topology
// is built on the worker that scores it, reading distances through that
// worker's provider: matrix-free providers keep a per-instance row-tile
// cache, so sharing one across threads would race. Clone counters are folded
// into the caller's evaluator after every batch, so eval().evaluations() is
// exact between batches.
class CandidateScorer {
 public:
  CandidateScorer(Evaluator& eval, std::size_t num_threads) : eval_(eval) {
    if (num_threads < 2) return;
    clones_.reserve(num_threads - 1);
    for (std::size_t w = 1; w < num_threads; ++w) {
      clones_.push_back(eval.clone());
    }
    pool_ = std::make_unique<ThreadPool>(num_threads);
  }

  Evaluator& eval() { return eval_; }

  /// Candidates one batch can score at once.
  std::size_t width() const { return clones_.size() + 1; }

  /// Returns the cost of build(i, lengths) for every i in [0, count), each
  /// slot written by exactly one worker.
  template <typename Build>
  std::vector<double> score(std::size_t count, const Build& build) {
    std::vector<double> costs(count);
    if (pool_ == nullptr || count < 2) {
      for (std::size_t i = 0; i < count; ++i) {
        costs[i] = eval_.cost(build(i, eval_.lengths()));
      }
      return costs;
    }
    pool_->parallel_for(0, count, [&](std::size_t i, std::size_t w) {
      Evaluator& e = w == 0 ? eval_ : clones_[w - 1];
      costs[i] = e.cost(build(i, e.lengths()));
    });
    for (Evaluator& c : clones_) eval_.merge_stats(c);
    return costs;
  }

 private:
  Evaluator& eval_;
  std::vector<Evaluator> clones_;
  std::unique_ptr<ThreadPool> pool_;
};

// Index of the cheapest cost strictly below `bound`, the lowest index on
// ties (the serial scan's strict `<`), or kNone when nothing improves.
std::size_t argmin_below(const std::vector<double>& costs, double bound) {
  std::size_t best = kNone;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (costs[i] < bound) {
      bound = costs[i];
      best = i;
    }
  }
  return best;
}

struct Walk {
  HubState state;
  double cost = kInf;
};

// Best single-hub star: try every centre, keep the cheapest.
Walk best_star(CandidateScorer& scorer) {
  const std::size_t n = scorer.eval().num_nodes();
  const std::vector<double> costs =
      scorer.score(n, [n](std::size_t centre, const DistanceProvider& lengths) {
        return realize(HubState{{centre}, {}}, n, lengths);
      });
  const std::size_t best = argmin_below(costs, kInf);
  if (best == kNone) return {};
  return {HubState{{best}, {}}, costs[best]};
}

// Rewires the hub links according to the strategy's fixed policy
// (clique for Complete, MST for Mst). GreedyAttachment/RandomGreedy keep
// explicit incremental links and do not use this.
void rewire_fixed(HubState& state, HubStrategy strategy,
                  const DistanceProvider& lengths) {
  state.hub_links.clear();
  const std::size_t h = state.hubs.size();
  if (h < 2) return;
  if (strategy == HubStrategy::kComplete) {
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = i + 1; j < h; ++j) {
        state.hub_links.push_back(make_edge(state.hubs[i], state.hubs[j]));
      }
    }
    return;
  }
  // MST over hub-to-hub distances.
  Matrix<double> hub_dist = Matrix<double>::square(h, 0.0);
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      hub_dist(i, j) = lengths(state.hubs[i], state.hubs[j]);
    }
  }
  for (const Edge& e : minimum_spanning_tree(hub_dist).edges()) {
    state.hub_links.push_back(make_edge(state.hubs[e.u], state.hubs[e.v]));
  }
}

// Greedy link expansion for a newly accepted hub `c` (paper: "picking the
// lowest cost connecting link, etc., until there are no more cost
// reductions"): starting from c's single nearest-hub link, keep adding the
// (c, hub) link that lowers total cost the most.
double greedy_expand_links(CandidateScorer& scorer, HubState& state, NodeId c,
                           double current_cost) {
  const std::size_t n = scorer.eval().num_nodes();
  std::vector<Edge> links;
  while (true) {
    links.clear();
    for (NodeId h : state.hubs) {
      if (h == c) continue;
      const Edge cand = make_edge(c, h);
      if (std::find(state.hub_links.begin(), state.hub_links.end(), cand) ==
          state.hub_links.end()) {
        links.push_back(cand);
      }
    }
    const std::vector<double> costs = scorer.score(
        links.size(), [&](std::size_t i, const DistanceProvider& lengths) {
          HubState trial = state;
          trial.hub_links.push_back(links[i]);
          return realize(trial, n, lengths);
        });
    const std::size_t best = argmin_below(costs, current_cost);
    if (best == kNone) return current_cost;
    state.hub_links.push_back(links[best]);
    current_cost = costs[best];
  }
}

// `state` with `c` tentatively added as a hub under the given strategy.
HubState with_hub(const HubState& state, NodeId c, HubStrategy strategy,
                  const DistanceProvider& lengths) {
  HubState trial = state;
  if (strategy == HubStrategy::kComplete || strategy == HubStrategy::kMst) {
    trial.hubs.push_back(c);
    rewire_fixed(trial, strategy, lengths);
    return trial;
  }
  // Greedy strategies: candidate wired only to its nearest hub; the full
  // greedy expansion happens once the candidate is accepted.
  const NodeId h = nearest_hub(state, c, lengths);
  trial.hubs.push_back(c);
  trial.hub_links.push_back(make_edge(c, h));
  return trial;
}

HeuristicResult finish(Evaluator& eval, const HubState& state, double cost,
                       HubStrategy strategy) {
  HeuristicResult r;
  r.topology = realize(state, eval.num_nodes(), eval.lengths());
  r.cost = cost;
  r.name = to_string(strategy);
  return r;
}

// Complete, Mst and GreedyAttachment: score every non-hub candidate, accept
// the cheapest improving one, repeat.
HeuristicResult run_candidate_loop(CandidateScorer& scorer,
                                   HubStrategy strategy) {
  Evaluator& eval = scorer.eval();
  const std::size_t n = eval.num_nodes();
  Walk walk = best_star(scorer);
  std::vector<NodeId> candidates;
  while (walk.state.hubs.size() < n) {
    candidates.clear();
    for (NodeId c = 0; c < n; ++c) {
      if (!walk.state.is_hub(c)) candidates.push_back(c);
    }
    const std::vector<double> costs = scorer.score(
        candidates.size(), [&](std::size_t i, const DistanceProvider& lengths) {
          return realize(with_hub(walk.state, candidates[i], strategy, lengths),
                         n, lengths);
        });
    const std::size_t best = argmin_below(costs, walk.cost);
    if (best == kNone) break;
    walk.state = with_hub(walk.state, candidates[best], strategy,
                          eval.lengths());
    walk.cost = costs[best];
    if (strategy == HubStrategy::kGreedyAttachment) {
      walk.cost = greedy_expand_links(scorer, walk.state,
                                      walk.state.hubs.back(), walk.cost);
    }
  }
  return finish(eval, walk.state, walk.cost, strategy);
}

// RandomGreedy: walk random permutations, accepting every improving
// candidate in turn. A batch scores the next width() non-hub candidates
// against the current state; the walk accepts the first improving one in
// permutation order, refunds the evaluations past it (the serial walk would
// have scored them against the changed state) and resumes right after it.
HeuristicResult run_random_greedy(CandidateScorer& scorer, Rng& rng,
                                  const HubHeuristicOptions& options) {
  Evaluator& eval = scorer.eval();
  const std::size_t n = eval.num_nodes();
  HeuristicResult best;
  best.cost = kInf;
  const std::size_t perms = std::max<std::size_t>(1, options.num_permutations);
  std::vector<std::size_t> window;  // positions in `order`
  for (std::size_t p = 0; p < perms; ++p) {
    Walk walk = best_star(scorer);
    const std::vector<std::size_t> order = rng.permutation(n);
    std::size_t next = 0;
    while (next < order.size()) {
      window.clear();
      for (; next < order.size() && window.size() < scorer.width(); ++next) {
        if (!walk.state.is_hub(order[next])) window.push_back(next);
      }
      const std::vector<double> costs = scorer.score(
          window.size(), [&](std::size_t i, const DistanceProvider& lengths) {
            return realize(with_hub(walk.state, order[window[i]],
                                    HubStrategy::kRandomGreedy, lengths),
                           n, lengths);
          });
      std::size_t accepted = 0;
      while (accepted < costs.size() && !(costs[accepted] < walk.cost)) {
        ++accepted;
      }
      if (accepted == costs.size()) continue;
      detail::refund_evaluations(eval, costs.size() - accepted - 1);
      const NodeId c = order[window[accepted]];
      walk.state = with_hub(walk.state, c, HubStrategy::kRandomGreedy,
                            eval.lengths());
      walk.cost = greedy_expand_links(scorer, walk.state, c, costs[accepted]);
      next = window[accepted] + 1;
    }
    if (walk.cost < best.cost) {
      best = finish(eval, walk.state, walk.cost, HubStrategy::kRandomGreedy);
    }
  }
  return best;
}

HeuristicResult run_with(CandidateScorer& scorer, HubStrategy strategy,
                         Rng& rng, const HubHeuristicOptions& options) {
  if (scorer.eval().num_nodes() < 2) {
    throw std::invalid_argument("run_hub_heuristic: need at least 2 PoPs");
  }
  if (strategy == HubStrategy::kRandomGreedy) {
    return run_random_greedy(scorer, rng, options);
  }
  return run_candidate_loop(scorer, strategy);
}

}  // namespace

std::vector<HubStrategy> all_hub_strategies() {
  return {HubStrategy::kRandomGreedy, HubStrategy::kComplete, HubStrategy::kMst,
          HubStrategy::kGreedyAttachment};
}

std::string to_string(HubStrategy s) {
  switch (s) {
    case HubStrategy::kRandomGreedy:
      return "random greedy";
    case HubStrategy::kComplete:
      return "complete";
    case HubStrategy::kMst:
      return "mst";
    case HubStrategy::kGreedyAttachment:
      return "greedy attachment";
  }
  throw std::invalid_argument("unknown HubStrategy");
}

Topology build_hub_topology(std::size_t n, const std::vector<NodeId>& hubs,
                            const std::vector<Edge>& hub_edges,
                            const DistanceProvider& lengths) {
  if (hubs.empty()) throw std::invalid_argument("build_hub_topology: no hubs");
  Topology g(n);
  std::vector<bool> is_hub(n, false);
  for (NodeId h : hubs) {
    if (h >= n) throw std::invalid_argument("build_hub_topology: bad hub id");
    is_hub[h] = true;
  }
  for (const Edge& e : hub_edges) {
    if (!is_hub[e.u] || !is_hub[e.v]) {
      throw std::invalid_argument("build_hub_topology: hub edge on non-hub");
    }
    g.add_edge(e.u, e.v);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (is_hub[v]) continue;
    NodeId best = hubs.front();
    for (NodeId h : hubs) {
      if (lengths(v, h) < lengths(v, best)) best = h;
    }
    g.add_edge(v, best);
  }
  return g;
}

HeuristicResult run_hub_heuristic(Evaluator& eval, HubStrategy strategy,
                                  Rng& rng, const HubHeuristicOptions& options,
                                  std::size_t num_threads) {
  CandidateScorer scorer(eval, num_threads);
  return run_with(scorer, strategy, rng, options);
}

std::vector<HeuristicResult> run_all_heuristics(
    Evaluator& eval, Rng& rng, const HubHeuristicOptions& options,
    RunObserver* observer, StopCondition* stop, std::size_t num_threads) {
  if (stop != nullptr) stop->arm();
  CandidateScorer scorer(eval, num_threads);
  std::vector<HeuristicResult> out;
  for (HubStrategy s : all_hub_strategies()) {
    if (stop != nullptr && stop->should_stop()) break;
    const auto started = std::chrono::steady_clock::now();
    const std::size_t evals_before = eval.evaluations();
    HeuristicResult r = run_with(scorer, s, rng, options);
    r.wall_ns = elapsed_ns(started);
    if (stop != nullptr) {
      stop->add_evaluations(eval.evaluations() - evals_before);
    }
    if (observer != nullptr) {
      observer->on_heuristic_done({r.name, r.cost, r.wall_ns});
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace cold
