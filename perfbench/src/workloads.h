// The benchmark's workloads. Each sets problem inputs only — PoP count, the
// cost parameters, GA population and generations, thread count and seeds.
// Every engine setting (EvalEngineConfig, GaConfig::dedup / affinity, the
// cost cache, the Dijkstra kernel, the delta engine) stays at its library
// default, so a change of default is measured without editing this file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/synthesizer.h"

namespace perfbench {

enum class Kind {
  kSynth,     ///< one Synthesizer::synthesize() call per network
  kEnsemble,  ///< generate_ensemble() calls of `ensemble_count` networks
};

/// Best cost plus an edge-set hash: what the pinned canary must reproduce.
struct Digest {
  std::uint64_t cost_bits = 0;  ///< bit pattern of the best cost
  std::uint64_t edges = 0;      ///< hash of the sorted edge list

  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Network 0 of every run (base seed of an ensemble workload's first call):
/// a fixed seed whose digest each workload pins, so trajectory drift fails
/// every run, whatever --seed is.
inline constexpr std::uint64_t kCanarySeed = 1;

struct Workload {
  std::string name;
  Kind kind = Kind::kSynth;
  std::size_t pops = 30;
  std::size_t population = 100;
  std::size_t generations = 100;
  bool heuristics = true;
  bool clique_seed = true;
  std::size_t threads = 4;
  std::size_t ensemble_count = 0;  ///< networks per generate_ensemble call
  /// Pinned digest of network kCanarySeed (of the ensemble call based at
  /// it, for kEnsemble).
  Digest canary;

  /// GA threads of one network: `threads` for a synthesis, 1 inside an
  /// ensemble (the ensemble layer runs its inner GAs sequentially).
  std::size_t ga_threads() const {
    return kind == Kind::kEnsemble ? 1 : threads;
  }
};

const std::vector<Workload>& workloads();

/// Throws std::invalid_argument listing the valid names.
const Workload& find_workload(const std::string& name);

/// The synthesis configuration of `w` with `ga_threads` GA scoring threads.
cold::SynthesisConfig synthesis_config(const Workload& w,
                                       std::size_t ga_threads);

/// Seed of network `k` in a run with workload seed `seed`: the canary for
/// k == 0, otherwise a SplitMix64 hash of (seed, k).
std::uint64_t network_seed(std::uint64_t seed, std::size_t k);

}  // namespace perfbench
