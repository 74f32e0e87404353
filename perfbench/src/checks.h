// Output checks. Every network the benchmark produces is checked; a network
// that fails any check (or whose synthesis threw) counts toward failed_frac
// and makes the run exit non-zero.
#pragma once

#include <string>

#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {

/// Empty when the network passed; otherwise what failed.
using CheckFailure = std::string;

/// One synthesized network:
///  - its topology is connected and is the GA's winner;
///  - a fresh Evaluator with the default engine re-scores the winner to the
///    reported best cost bit for bit;
///  - the best cost is at most the cheapest heuristic's (the initialized-GA
///    guarantee), and heuristics ran iff the config asked for them.
CheckFailure check_synthesis(const cold::SynthesisResult& r,
                             const cold::SynthesisConfig& cfg);

/// One ensemble call: the run count matches, nothing stopped early, and
/// every aggregate is finite. (Retained runs are checked one by one with
/// check_synthesis by the caller.)
CheckFailure check_ensemble(const cold::EnsembleResult& e,
                            std::size_t expected_runs);

/// The traced run's recomposed pipeline against Synthesizer::synthesize for
/// the same seed: best cost, best-cost history, winner edge set, heuristic
/// results and assembled cost must all match bit for bit, and the network
/// must be connected.
CheckFailure check_fidelity(const cold::SynthesisResult& ref,
                            const TracedNetwork& t);

/// Hash of the sorted edge list of `g` (independent of the library's own
/// fingerprint, so a change of Zobrist keys does not look like drift).
std::uint64_t edge_hash(const cold::Topology& g);

Digest digest_of(double best_cost, const cold::Topology& best);
Digest digest_of(const cold::EnsembleResult& e);

std::string to_string(const Digest& d);

/// Bitwise equality of two doubles (distinguishes -0.0, compares NaN bits).
bool same_bits(double a, double b);

}  // namespace perfbench
