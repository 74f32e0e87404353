#include "traced.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/context.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "ga/objective.h"
#include "graph/algorithms.h"
#include "graph/shortest_paths.h"
#include "heuristics/hub_heuristics.h"
#include "net/network.h"

namespace perfbench {

namespace {

double seconds(const Span& s) {
  return static_cast<double>(s.duration_ns()) * 1e-9;
}

std::string snake(std::string s) {
  std::replace(s.begin(), s.end(), ' ', '_');
  return s;
}

struct CostCall {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t fingerprint = 0;
  std::vector<cold::Edge> edges;
};

/// Per-worker cost() records. Worker w's vector is written only by the
/// thread running objective w (the GA scorer pins one objective per pool
/// thread) and read after run_ga has joined every worker.
class CallBuffers {
 public:
  explicit CallBuffers(std::chrono::steady_clock::time_point origin)
      : origin_(origin) {}
  // Objectives running on worker threads hold its address.
  CallBuffers(const CallBuffers&) = delete;
  CallBuffers& operator=(const CallBuffers&) = delete;

  /// Called from clone(), which the scorer runs on the calling thread
  /// before any worker starts.
  std::uint32_t add_worker() {
    workers_.emplace_back();
    return static_cast<std::uint32_t>(workers_.size() - 1);
  }
  std::vector<CostCall>& calls(std::uint32_t w) { return workers_[w]; }
  std::size_t size() const { return workers_.size(); }
  std::chrono::steady_clock::time_point origin() const { return origin_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::deque<std::vector<CostCall>> workers_;  // stable references
};

class TimedObjective final : public cold::Objective {
 public:
  TimedObjective(std::unique_ptr<cold::Objective> inner, CallBuffers& buffers)
      : inner_(std::move(inner)),
        buffers_(&buffers),
        worker_(buffers.add_worker()) {}

  double cost(const cold::Topology& g) override {
    const std::int64_t start = ns_since(buffers_->origin());
    const double c = inner_->cost(g);
    const std::int64_t end = ns_since(buffers_->origin());
    buffers_->calls(worker_).push_back(
        {start, end, g.fingerprint(), g.edges()});
    return c;
  }
  const cold::DistanceProvider& lengths() const override {
    return inner_->lengths();
  }
  std::unique_ptr<cold::Objective> clone() const override {
    std::unique_ptr<cold::Objective> c = inner_->clone();
    if (!c) return nullptr;
    return std::make_unique<TimedObjective>(std::move(c), *buffers_);
  }
  void merge_from(cold::Objective& worker) override {
    if (auto* w = dynamic_cast<TimedObjective*>(&worker)) {
      inner_->merge_from(*w->inner_);
    }
  }
  void charge_duplicates(std::size_t n) override {
    inner_->charge_duplicates(n);
  }
  void set_parent_hint(std::uint64_t fingerprint) override {
    inner_->set_parent_hint(fingerprint);
  }
  const cold::DeltaStats* delta_stats() const override {
    return inner_->delta_stats();
  }

 private:
  std::unique_ptr<cold::Objective> inner_;
  CallBuffers* buffers_;
  std::uint32_t worker_;
};

/// Records each GA generation's interval from its GenerationEnd event.
class GenerationObserver final : public cold::RunObserver {
 public:
  explicit GenerationObserver(const SpanLog& log) : log_(&log) {}

  void on_generation_end(const cold::GenerationEnd& e) override {
    const std::int64_t end = log_->now();
    intervals.emplace_back(end - static_cast<std::int64_t>(e.wall_ns), end);
  }

  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;

 private:
  const SpanLog* log_;
};

/// Turns the GA's generation intervals and the workers' cost() records into
/// spans under `ga_span`: an initialization span and one span per
/// generation, each holding a variation span (the serial gap before
/// scoring), a scoring-pass span from the first cost() start to the last
/// cost() end, and the per-worker cost spans inside it.
void add_ga_spans(SpanLog& log, std::int32_t ga_span, std::uint32_t id,
                  const GenerationObserver& gens, CallBuffers& buffers,
                  TracedNetwork& out) {
  const Span ga = log.spans()[static_cast<std::size_t>(ga_span)];
  struct Container {
    std::int64_t start, end;
    std::int32_t span = kNoParent;
    std::int64_t pass_start = 0, pass_end = 0;
    bool has_calls = false;
  };
  std::vector<Container> containers;
  const std::int64_t first_gen =
      gens.intervals.empty() ? ga.end_ns : gens.intervals.front().first;
  containers.push_back({ga.start_ns, first_gen});
  for (const auto& [a, b] : gens.intervals) containers.push_back({a, b});

  struct Located {
    const CostCall* call;
    std::uint32_t worker;
    std::size_t container;
  };
  std::vector<Located> located;
  for (std::uint32_t w = 0; w < buffers.size(); ++w) {
    for (const CostCall& c : buffers.calls(w)) {
      // The last container starting at or before the call.
      std::size_t k = 0;
      for (std::size_t j = 1; j < containers.size(); ++j) {
        if (containers[j].start <= c.start_ns) k = j;
      }
      Container& box = containers[k];
      if (!box.has_calls) {
        box.pass_start = c.start_ns;
        box.pass_end = c.end_ns;
        box.has_calls = true;
      } else {
        box.pass_start = std::min(box.pass_start, c.start_ns);
        box.pass_end = std::max(box.pass_end, c.end_ns);
      }
      located.push_back({&c, w, k});
    }
  }

  std::vector<std::int32_t> pass_span(containers.size(), kNoParent);
  for (std::size_t k = 0; k < containers.size(); ++k) {
    Container& box = containers[k];
    Span s;
    s.name = k == 0 ? "ga init" : "generation " + std::to_string(k - 1);
    s.cat = "ga";
    s.start_ns = box.start;
    s.end_ns = box.end;
    s.parent = ga_span;
    s.network = id;
    box.span = log.add(s);
    if (k > 0) {
      out.gen_ms.push_back(static_cast<double>(box.end - box.start) * 1e-6);
    }
    if (!box.has_calls) continue;
    Span gap;
    gap.name = k == 0 ? "initial population" : "variation";
    gap.cat = "ga";
    gap.start_ns = box.start;
    gap.end_ns = std::max(box.start, box.pass_start);
    gap.parent = box.span;
    gap.network = id;
    log.add(gap);
    Span pass;
    pass.name = "scoring pass";
    pass.cat = "util/thread_pool";
    pass.start_ns = box.pass_start;
    pass.end_ns = box.pass_end;
    pass.parent = box.span;
    pass.network = id;
    pass_span[k] = log.add(pass);
    out.pass_wall_s +=
        static_cast<double>(box.pass_end - box.pass_start) * 1e-9;
  }

  std::sort(located.begin(), located.end(),
            [](const Located& a, const Located& b) {
              return a.call->start_ns < b.call->start_ns;
            });
  using EdgeList = std::vector<cold::Edge>;
  std::unordered_map<std::uint64_t, std::vector<const EdgeList*>> seen;
  for (const Located& l : located) {
    const CostCall& c = *l.call;
    Span s;
    s.name = "cost";
    s.cat = "cost";
    s.start_ns = c.start_ns;
    s.end_ns = c.end_ns;
    s.parent = pass_span[l.container];
    s.network = id;
    s.worker = l.worker;
    log.add(s);
    const double dur = static_cast<double>(c.end_ns - c.start_ns);
    out.cost_us.push_back(dur * 1e-3);
    out.scoring_s += dur * 1e-9;
    // A repeat only when the edge sets really match, not just fingerprints.
    auto& same_fp = seen[c.fingerprint];
    const bool repeat =
        std::any_of(same_fp.begin(), same_fp.end(),
                    [&](const EdgeList* e) { return *e == c.edges; });
    if (repeat) {
      ++out.repeat_calls;
    } else {
      same_fp.push_back(&c.edges);
    }
  }
}

/// Bytes held by a context's arrays: CSR traffic, row totals, locations,
/// populations and the dense distance matrix when one is resident.
double context_bytes(const cold::Context& ctx) {
  const double n = static_cast<double>(ctx.num_pops());
  const double nnz = static_cast<double>(ctx.traffic.nnz());
  double bytes = nnz * (sizeof(std::uint32_t) + sizeof(double)) +
                 (n + 1.0) * sizeof(std::size_t) + n * sizeof(double) +
                 n * sizeof(cold::Point) + n * sizeof(double);
  if (ctx.distances.has_dense()) bytes += n * n * sizeof(double);
  return bytes;
}

}  // namespace

TracedNetwork run_traced(const Workload& w, std::uint64_t seed,
                         std::size_t ga_threads, SpanLog& log,
                         std::uint32_t id) {
  const cold::SynthesisConfig cfg = synthesis_config(w, ga_threads);
  TracedNetwork out;
  out.seed = seed;
  out.ga_threads = ga_threads;
  out.network_id = id;
  const auto span_s = [&log](std::int32_t i) {
    return seconds(log.spans()[static_cast<std::size_t>(i)]);
  };

  const std::int32_t root =
      log.open("synthesize (recomposed)", "core/synthesizer", kNoParent, id);

  std::int32_t s = log.open("generate_context", "core/context", root, id);
  cold::Rng context_rng(seed, /*stream=*/0);
  const cold::Context ctx = cold::generate_context(cfg.context, context_rng);
  log.close(s);
  out.context_s = span_s(s);
  out.traffic_nnz = ctx.traffic.nnz();
  out.context_bytes = context_bytes(ctx);

  s = log.open("Evaluator", "cost", root, id);
  cold::Evaluator eval(ctx.distances, ctx.traffic, cfg.costs, cfg.engine);
  log.close(s);
  out.evaluator_s = span_s(s);

  cold::Rng opt_rng(seed, /*stream=*/1);
  std::vector<cold::Topology> seeds;
  if (cfg.seed_with_heuristics) {
    const std::int32_t h = log.open("heuristics", "heuristics", root, id);
    const std::size_t evals_before = eval.evaluations();
    for (const cold::HubStrategy strategy : cold::all_hub_strategies()) {
      const std::string name = snake(cold::to_string(strategy));
      const std::size_t before = eval.evaluations();
      const std::int32_t step = log.open(name, "heuristics", h, id);
      cold::HeuristicResult r = cold::run_hub_heuristic(
          eval, strategy, opt_rng, cfg.heuristic_options);
      log.close(step);
      out.heuristic_steps.push_back(
          {name, span_s(step), eval.evaluations() - before});
      seeds.push_back(r.topology);
      out.heuristics.push_back(std::move(r));
    }
    log.close(h);
    out.heuristics_s = span_s(h);
    out.heuristic_evals = eval.evaluations() - evals_before;
  }

  const std::int32_t ga_span = log.open("run_ga", "ga", root, id);
  CallBuffers buffers(log.origin());
  GenerationObserver generations(log);
  {
    TimedObjective objective(std::make_unique<cold::EvaluatorObjective>(eval),
                             buffers);
    cold::GaRunOptions options;
    options.config = cfg.ga;
    options.seeds = std::move(seeds);
    options.observer = &generations;
    out.ga = cold::run_ga(objective, opt_rng, options);
  }
  log.close(ga_span);
  out.ga_s = span_s(ga_span);

  s = log.open("evaluate(best)", "cost", root, id);
  out.assembled_cost = eval.evaluate(out.ga.best).total();
  log.close(s);
  out.evaluate_s = span_s(s);

  s = log.open("build_network", "net", root, id);
  cold::NetworkBuildOptions build_options;
  build_options.overprovision = cfg.overprovision;
  build_options.multipath = cfg.engine.multipath.mode;
  const cold::Network network =
      cold::build_network(out.ga.best, ctx.locations, ctx.populations,
                          ctx.traffic, build_options);
  log.close(s);
  out.build_s = span_s(s);
  log.close(root);
  out.wall_s = span_s(root);

  out.network_connected = cold::is_connected(network.topology);
  out.cache = eval.cache_stats();
  out.dedup_skipped = eval.dedup_skipped();
  out.delta = eval.delta_stats();
  add_ga_spans(log, ga_span, id, generations, buffers, out);

  // Shortest-path trees from every source of the winner, the way the
  // routing layer runs them (with an edge-length cache when distances are
  // computed on demand).
  const cold::Topology& best = out.ga.best;
  const std::size_t n = best.num_nodes();
  s = log.open("shortest_path_tree from every source", "graph", kNoParent, id);
  cold::SpLengthCache length_cache;
  const cold::SpLengthCache* cache = nullptr;
  if (!ctx.distances.has_dense()) {
    length_cache.build(best, ctx.distances);
    cache = &length_cache;
  }
  cold::ShortestPathTree tree;
  for (cold::NodeId src = 0; src < n; ++src) {
    cold::shortest_path_tree(best, ctx.distances, src, tree,
                             cold::SpAlgorithm::kAuto, cache);
  }
  log.close(s);
  const double sssp_s = span_s(s);
  out.sssp_us = sssp_s / static_cast<double>(n) * 1e6;
  out.relax_per_s = 2.0 * static_cast<double>(best.num_edges()) *
                    static_cast<double>(n) / sssp_s;
  return out;
}

}  // namespace perfbench
