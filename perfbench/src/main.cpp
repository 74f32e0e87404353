// COLD end-to-end synthesis benchmark.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Untraced (--trace 0): closed loop, one client. Network k starts only when
// network k-1 is done, and only while at least half of a typical network
// still fits in --seconds. Network 0 is the workload's pinned canary; the
// others are derived from --seed. Every network is checked. Prints the
// end-to-end metrics.
//
// Traced (--trace 1): for each seed, Synthesizer::synthesize untraced and
// the recomposed pipeline traced at the workload's GA thread count (which
// goes first alternates), then traced at the other count (1 vs the workload's threads). Both
// traced runs must reproduce synthesize bit for bit. Prints the per-layer
// metrics and writes the spans as Chrome trace-event JSON.
//
// Both modes first keep every thread busy for half a second (idle vCPUs run
// slowly for a moment after they wake), then take the CPU-burn probe.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every check passed.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "core/context.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "cost/evaluator.h"
#include "layer_metrics.h"
#include "probes.h"
#include "result_line.h"
#include "spans.h"
#include "stats.h"
#include "traced.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace is 0 or 1");
  }
  return a;
}

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Closed-loop admission: the next unit of work (a network, or an ensemble
/// call) starts only if at least half of a typical unit still fits before
/// the deadline, so a run ends within half a unit of --seconds on average.
struct Budget {
  Clock::time_point start = Clock::now();
  double seconds = 0.0;
  double unit_total = 0.0;
  std::size_t units = 0;

  bool admit() const {
    if (units == 0) return true;
    const double mean = unit_total / static_cast<double>(units);
    return since(start) + mean / 2.0 < seconds;
  }
  void observe(double unit_s) {
    unit_total += unit_s;
    ++units;
  }
};

/// Wall time of generate_context plus Evaluator construction for `seed`,
/// repeated until at least 3 repetitions and 10 ms have been timed. This is
/// the per-network set-up that synthesize() performs before optimizing.
void time_setup(const cold::SynthesisConfig& cfg, std::uint64_t seed,
                std::vector<double>& samples) {
  double total = 0.0;
  for (int rep = 0; rep < 3 || total < 0.010; ++rep) {
    const auto t0 = Clock::now();
    cold::Rng rng(seed, /*stream=*/0);
    const cold::Context ctx = cold::generate_context(cfg.context, rng);
    const cold::Evaluator eval(ctx.distances, ctx.traffic, cfg.costs,
                               cfg.engine);
    const double s = since(t0);
    samples.push_back(s);
    total += s;
  }
}

struct RunState {
  pb::FailureCount failures;
  bool run_ok = true;  ///< checks not tied to one network: canary, trace file
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
};

void check_canary(const pb::Workload& w, const pb::Digest& got, RunState& st) {
  if (got == w.canary) return;
  st.run_ok = false;
  st.fail("canary seed " + std::to_string(pb::kCanarySeed) + " digest " +
          pb::to_string(got) + " != pinned " + pb::to_string(w.canary));
}

std::string pct(double p) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%g", p);
  return buf;
}

void print_header(const pb::Workload& w, const Args& a) {
  std::cout << "workload " << w.name << ": n=" << w.pops
            << " M=" << w.population << " T=" << w.generations
            << " heuristics=" << (w.heuristics ? "on" : "off")
            << " clique_seed=" << (w.clique_seed ? "on" : "off")
            << " threads=" << w.threads;
  if (w.kind == pb::Kind::kEnsemble) {
    std::cout << " ensemble_count=" << w.ensemble_count;
  }
  std::cout << "  seed=" << a.seed << " seconds=" << a.seconds
            << " trace=" << a.trace << '\n';
}

void print_burns(const pb::BurnReading& start, const pb::BurnReading& end) {
  std::cout << "  host.burn_ms: start 1t " << start.one_thread_ms << " 4t "
            << start.four_threads_ms << ", end 1t " << end.one_thread_ms
            << " 4t " << end.four_threads_ms << " ms\n";
}

int finish(const RunState& st, const std::vector<pb::Metric>& metrics) {
  for (const std::string& p : st.problems) {
    std::cout << "  FAILED: " << p << '\n';
  }
  const bool correct = st.failures.failed == 0 && st.run_ok;
  std::cout << pb::result_line(correct, st.failures.attempted,
                               st.failures.failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}

int run_untraced(const pb::Workload& w, const Args& a) {
  const pb::BurnReading burn_start = pb::burn_probe();
  const cold::SynthesisConfig cfg = pb::synthesis_config(w, w.ga_threads());
  const cold::Synthesizer synth(cfg);
  RunState st;
  std::vector<double> setup_s;
  std::vector<double> synth_s;     // per network (per call for ensembles)
  std::vector<double> rate;        // networks per second, per unit
  Budget budget{Clock::now(), a.seconds};
  for (std::size_t units = 0; budget.admit(); ++units) {
    const auto unit_start = Clock::now();
    const std::uint64_t seed = pb::network_seed(a.seed, units);
    time_setup(cfg, seed, setup_s);
    if (w.kind == pb::Kind::kSynth) {
      try {
        const auto t0 = Clock::now();
        const cold::SynthesisResult r = synth.synthesize(seed);
        const double wall = since(t0);
        synth_s.push_back(wall);
        rate.push_back(1.0 / wall);
        const pb::CheckFailure why = pb::check_synthesis(r, cfg);
        st.failures.record(why.empty());
        if (!why.empty()) st.fail("seed " + std::to_string(seed) + ": " + why);
        if (units == 0) {
          check_canary(w, pb::digest_of(r.ga.best_cost, r.ga.best), st);
        }
      } catch (const std::exception& e) {
        st.failures.record(false);
        st.fail("seed " + std::to_string(seed) + " threw: " + e.what());
      }
    } else {
      cold::EnsembleOptions options;
      options.count = w.ensemble_count;
      options.base_seed = seed;
      try {
        const auto t0 = Clock::now();
        const cold::EnsembleResult e = cold::generate_ensemble(synth, options);
        const double wall = since(t0);
        synth_s.push_back(wall / static_cast<double>(w.ensemble_count));
        rate.push_back(static_cast<double>(w.ensemble_count) / wall);
        const pb::CheckFailure why = pb::check_ensemble(e, w.ensemble_count);
        if (!why.empty()) {
          st.failures.record_many(w.ensemble_count, false);
          st.fail("ensemble base seed " + std::to_string(seed) + ": " + why);
        } else {
          for (const cold::SynthesisResult& r : e.runs()) {
            const pb::CheckFailure bad = pb::check_synthesis(r, cfg);
            st.failures.record(bad.empty());
            if (!bad.empty()) st.fail("ensemble member: " + bad);
          }
        }
        if (units == 0) check_canary(w, pb::digest_of(e), st);
      } catch (const std::exception& ex) {
        st.failures.record_many(w.ensemble_count, false);
        st.fail("ensemble base seed " + std::to_string(seed) +
                " threw: " + ex.what());
      }
    }
    budget.observe(since(unit_start));
  }
  const double measured_s = since(budget.start);
  const pb::BurnReading burn_end = pb::burn_probe();

  print_header(w, a);
  const std::string per = w.kind == pb::Kind::kSynth
                              ? "per synthesize() call"
                              : "per generate_ensemble() call";
  const auto n_of = [](const std::vector<double>& xs) {
    return "n=" + std::to_string(xs.size());
  };
  const pb::Summary synth_sum = pb::summarize(synth_s);
  std::vector<pb::Metric> metrics;
  std::vector<pb::Metric> extra;
  if (synth_s.empty()) {
    metrics = {{"setup_s", 0, "s"}, {"synth_s.p50", 0, "s"},
               {"networks_per_s", 0, "1/s"},
               {"peak_rss_mib", pb::peak_rss_mib(), "MiB"}};
  } else {
    const pb::Quartiles q = pb::quartiles(synth_s);
    metrics = {
        {"setup_s", pb::median(setup_s), "s", "median, " + n_of(setup_s)},
        {"synth_s.p50", synth_sum.p50, "s",
         "median " + per + ", " + n_of(synth_s) + ", quartiles " +
             std::to_string(q.q1) + " .. " + std::to_string(q.q3)},
        {"networks_per_s", pb::median(rate), "1/s",
         "median " + per + ", " + n_of(rate)},
        {"peak_rss_mib", pb::peak_rss_mib(), "MiB", "process high-water mark"},
    };
    // Printed, not a bounded metric: a run holds too few networks for ten
    // samples to lie beyond the 90th percentile, so it swings between runs.
    extra.emplace_back(
        "synth_s.p90", pb::percentile(synth_s, 90.0), "s",
        "nearest rank, " + n_of(synth_s) + ", " +
            std::to_string(pb::samples_beyond(synth_s.size(), 90.0)) +
            " beyond");
  }
  pb::print_metrics(std::cout, metrics);
  extra.emplace_back("failed_frac", st.failures.fraction(), "ratio",
                     std::to_string(st.failures.failed) + " of " +
                         std::to_string(st.failures.attempted) + " networks");
  extra.emplace_back("measured_s", measured_s, "s");
  if (synth_sum.tail_pct > 0) {
    extra.emplace_back("synth_s.tail", synth_sum.tail, "s",
                       "p" + pct(synth_sum.tail_pct) +
                           ", highest percentile with >= 10 samples beyond");
  }
  pb::print_metrics(std::cout, extra);
  std::cout << "  " << (w.kind == pb::Kind::kSynth ? "synthesize" : "ensemble")
            << " seconds, in run order:";
  for (const double s : synth_s) std::cout << ' ' << s;
  std::cout << '\n';
  print_burns(burn_start, burn_end);
  return finish(st, metrics);
}

std::string trace_path(const pb::Workload& w, const Args& a) {
  return ".bench_build/traces/" + w.name + "-seed" + std::to_string(a.seed) +
         ".json";
}

int run_traced_mode(const pb::Workload& w, const Args& a) {
  const pb::BurnReading burn_start = pb::burn_probe();
  RunState st;
  pb::SpanLog log;
  std::vector<std::string> names;
  pb::TracedRun run;
  run.main_threads = w.ga_threads();
  const std::size_t other_threads = run.main_threads == 1 ? w.threads : 1;
  std::size_t export_upto = 0;  // spans [0, export_upto) go to the trace file

  std::size_t k = 0;
  if (w.kind == pb::Kind::kEnsemble) {
    // One generate_ensemble() call for the ensemble layer's CPU use.
    const cold::SynthesisConfig cfg = pb::synthesis_config(w, run.main_threads);
    const cold::Synthesizer synth(cfg);
    cold::EnsembleOptions options;
    options.count = w.ensemble_count;
    options.base_seed = pb::network_seed(a.seed, k++);
    const auto id = static_cast<std::uint32_t>(names.size());
    names.push_back("generate_ensemble, " + std::to_string(w.ensemble_count) +
                    " networks from seed " + std::to_string(options.base_seed));
    const double cpu0 = pb::process_cpu_s();
    const std::int32_t span =
        log.open("generate_ensemble", "core/ensemble", pb::kNoParent, id);
    const cold::EnsembleResult e = cold::generate_ensemble(synth, options);
    log.close(span);
    const double cpu = pb::process_cpu_s() - cpu0;
    const pb::Span& ensemble_span = log.spans()[static_cast<std::size_t>(span)];
    const double wall = static_cast<double>(ensemble_span.duration_ns()) * 1e-9;
    run.ensemble_cpu_util = cpu / (wall * static_cast<double>(w.threads));
    run.ensemble_cpu_per_network = cpu / static_cast<double>(w.ensemble_count);
    run.cpu_util.push_back(run.ensemble_cpu_util);
    const pb::CheckFailure why = pb::check_ensemble(e, w.ensemble_count);
    if (!why.empty()) {
      st.failures.record_many(w.ensemble_count, false);
      st.fail("ensemble: " + why);
    } else {
      for (const cold::SynthesisResult& r : e.runs()) {
        const pb::CheckFailure bad = pb::check_synthesis(r, cfg);
        st.failures.record(bad.empty());
        if (!bad.empty()) st.fail("ensemble member: " + bad);
      }
    }
    check_canary(w, pb::digest_of(e), st);
    export_upto = log.spans().size();
  }

  Budget budget{Clock::now(), a.seconds};
  for (std::size_t done = 0; budget.admit(); ++done, ++k) {
    const auto unit_start = Clock::now();
    const std::uint64_t seed = pb::network_seed(a.seed, k);
    const cold::SynthesisConfig cfg = pb::synthesis_config(w, run.main_threads);
    const auto traced = [&](std::size_t threads) {
      const auto id = static_cast<std::uint32_t>(names.size());
      names.push_back("seed " + std::to_string(seed) + ", " +
                      std::to_string(threads) + " GA thread(s)");
      return pb::run_traced(w, seed, threads, log, id);
    };
    try {
      // Alternate which of the untraced and traced runs goes first, so that
      // trace.overhead does not pick up an order effect.
      std::optional<pb::TracedNetwork> main_run;
      if (done % 2 == 1) main_run = traced(run.main_threads);
      const cold::Synthesizer synth(cfg);
      const double cpu0 = pb::process_cpu_s();
      const auto t0 = Clock::now();
      const cold::SynthesisResult ref = synth.synthesize(seed);
      const double wall = since(t0);
      const double cpu = pb::process_cpu_s() - cpu0;
      if (!main_run) main_run = traced(run.main_threads);
      pb::TracedNetwork other_run = traced(other_threads);

      if (w.kind == pb::Kind::kSynth) {
        run.cpu_util.push_back(
            cpu / (wall * static_cast<double>(run.main_threads)));
        if (k == 0) {
          check_canary(w, pb::digest_of(ref.ga.best_cost, ref.ga.best), st);
        }
      }
      std::string why = pb::check_synthesis(ref, cfg);
      if (why.empty()) why = pb::check_fidelity(ref, *main_run);
      if (why.empty()) why = pb::check_fidelity(ref, other_run);
      st.failures.record(why.empty());
      if (!why.empty()) st.fail("seed " + std::to_string(seed) + ": " + why);
      run.untraced_s.push_back(wall);
      run.mains.push_back(std::move(*main_run));
      run.others.push_back(std::move(other_run));
    } catch (const std::exception& e) {
      st.failures.record(false);
      st.fail("seed " + std::to_string(seed) + " threw: " + e.what());
    }
    if (done == 0) export_upto = log.spans().size();
    budget.observe(since(unit_start));
  }
  const pb::BurnReading burn_end = pb::burn_probe();
  const std::vector<pb::Metric> metrics =
      pb::layer_metrics(run, burn_start, burn_end, st.failures);

  const std::string path = trace_path(w, a);
  {
    const std::vector<pb::Span> exported(
        log.spans().begin(),
        log.spans().begin() + static_cast<std::ptrdiff_t>(export_upto));
    const std::filesystem::path p(path);
    std::filesystem::create_directories(p.parent_path());
    std::ofstream out(p);
    pb::write_chrome_trace(out, exported, names);
    if (!out) {
      st.run_ok = false;
      st.fail("could not write trace file " + path);
    }
  }

  print_header(w, a);
  std::cout << "  traced seeds: " << run.mains.size() << " ("
            << run.main_threads
            << " and " << other_threads << " GA threads each)\n";
  pb::print_metrics(std::cout, metrics);
  std::cout << "  self time by layer, median per network (cost: summed over "
               "workers):\n";
  for (const auto& [layer, s] : pb::self_time_by_layer(log, run.mains)) {
    std::cout << "    " << layer << " " << s << " s\n";
  }
  print_burns(burn_start, burn_end);
  std::cout << "  trace: " << path << " (" << export_upto
            << " spans of the first seed; open in Perfetto or "
               "chrome://tracing)\n";
  return finish(st, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const pb::Workload& w = pb::find_workload(a.workload);
    pb::warm_up(w.threads, 0.5);
    return a.trace == 0 ? run_untraced(w, a) : run_traced_mode(w, a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
