#include "workloads.h"

#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Why each workload exists, and what each should show, is recorded in
// perfbench/design.json. Canary digests are for this repository's
// toolchain (g++ 12, glibc); any change to a best cost or winner edge set
// fails every run until they are re-pinned.
std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;
  {
    // Paper scale (section 5): the GA and its scoring pool dominate. Two
    // scoring threads, not four: a generation's scoring pass is a barrier
    // every few milliseconds, and with all four vCPUs of a shared VM in it,
    // any vCPU the host takes away stalls the whole pass. On 4 threads one
    // busy neighbour thread slowed a network by 35% and ten-run medians
    // spread 25-28%; on 2 threads the same neighbour changed nothing.
    Workload w;
    w.name = "paper-n30";
    w.threads = 2;
    w.pops = 30;
    w.population = 100;
    w.generations = 100;
    w.canary = {0x409ffe413cd5499aULL, 0x1e35e7692e9ba8b9ULL};
    ws.push_back(w);
  }
  {
    // The serial greedy heuristics dominate. n = 80 rather than a larger n
    // keeps ~10 networks in a 27 s run on a 4-vCPU VM while the heuristics
    // still take ~75-80% of wall; at n = 120 a run held 2-3 and its median
    // swung with which seeds it drew.
    Workload w;
    w.name = "hubs-n80";
    w.pops = 80;
    w.population = 48;
    w.generations = 40;
    w.canary = {0x40d2a4879ad2e9ccULL, 0x17fc616b45986e79ULL};
    ws.push_back(w);
  }
  {
    // Matrix-free evaluation at n = 2000. M = 4 (one scoring round per pass
    // on 4 threads) keeps 5-10 networks in a 27 s run on a 4-vCPU VM; at
    // M = 8 a run held 3-4.
    Workload w;
    w.name = "city-n2000";
    w.pops = 2000;
    w.population = 4;
    w.generations = 2;
    w.heuristics = false;
    w.clique_seed = false;
    w.canary = {0x4173b0837709faddULL, 0x58fd079e6f4392ccULL};
    ws.push_back(w);
  }
  {
    // Throughput of many networks; the inner GAs run sequentially.
    Workload w;
    w.name = "ensemble-n30";
    w.kind = Kind::kEnsemble;
    w.pops = 30;
    w.population = 48;
    w.generations = 40;
    w.ensemble_count = 32;
    w.canary = {0x40917f20cafa03a2ULL, 0x4cbcdb393e3bfb1cULL};
    ws.push_back(w);
  }
  return ws;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = make_workloads();
  return ws;
}

const Workload& find_workload(const std::string& name) {
  std::string names;
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
    names += (names.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (valid: " + names + ")");
}

cold::SynthesisConfig synthesis_config(const Workload& w,
                                       std::size_t ga_threads) {
  cold::SynthesisConfig cfg;
  cfg.context.num_pops = w.pops;
  cfg.costs = {.k0 = 10, .k1 = 1, .k2 = 4e-4, .k3 = 10};
  cfg.ga.population = w.population;
  cfg.ga.generations = w.generations;
  cfg.ga.include_clique_seed = w.clique_seed;
  cfg.ga.parallel.num_threads = ga_threads;
  cfg.seed_with_heuristics = w.heuristics;
  cfg.parallel.num_threads = w.threads;
  return cfg;
}

std::uint64_t network_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return kCanarySeed;
  // Keep derived seeds away from the canary and from small integers.
  return splitmix64(splitmix64(seed) + k) | (std::uint64_t{1} << 40);
}

}  // namespace perfbench
