// Memoized cost evaluation — the cache behind the evaluation engine.
//
// GA populations revisit topologies constantly (elites survive unchanged,
// crossover recreates parents, mutation round-trips), so a large fraction of
// cost evaluations are exact repeats. CostCache memoizes CostBreakdown
// results keyed by the topology's Zobrist fingerprint (graph/topology.h)
// plus (n, m), turning a repeat from an O(n * (n+m) log n) routing sweep
// into an O(n + m) verification.
//
// Sharing: one CostCache serves a root Evaluator and every worker clone of
// it (GA scoring and heuristic scoring alike), so an elite scored on worker
// 0 hits on worker 3. It is thread-safe by lock striping: 64 LRU sets
// selected by fingerprint bits, each a shard guarded by its own mutex. A
// lookup or insert locks exactly one shard, so workers touch disjoint
// shards concurrently and colliding workers serialize only per shard.
//
// Memory: each set owns an equal share of EvalCacheConfig::max_bytes as one
// slab, allocated on the set's first insert (cache_detail::EntrySet); the
// shard headers (~9 KB) wait for the first call. An insert that does not
// fit evicts the set's least-recently-used entries until it does. So
// building an evaluator costs no cache memory or time, a run that never
// repeats a topology pays almost nothing, resident_bytes() never exceeds
// the budget, and a set makes one allocation in its lifetime: no churn for
// the allocator to fragment.
//
// Compact entries: an 88-byte slot holds the key, LRU stamp, n, m and the
// cost terms; a tail holds the two summaries (only when either is set) and
// the edge set as LEB128 varint gaps between the sorted pair indices
// u * n + v (u < v), about 1 byte per edge at n <= 80 and 2 at n = 2000.
//
// Collision policy: fingerprints are 64-bit XORs of per-edge keys, so
// distinct edge sets *can* collide. A hit is therefore only reported after
// full verification: n and m must match, and the stored encoding is merged
// against the queried topology's sorted adjacency, edge by edge. A
// verification failure counts as a miss; correctness never rests on hash
// uniqueness. find() copies the stored breakdown out under the shard lock —
// returning a pointer would race with a concurrent eviction.
//
// Determinism: the cache stores exact breakdowns, so cached and recomputed
// results are bit-identical and enabling the cache cannot change any
// optimization trajectory; sharing it changes hit rates and wall-clock
// only. Per-shard counters are updated under the shard lock, which makes
// the aggregate stats() conservation exact: hits + misses == find calls,
// regardless of interleaving.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "graph/shortest_paths.h"
#include "graph/topology.h"
#include "net/multipath.h"

namespace cold {

/// Tuning for an Evaluator's memoization cache.
struct EvalCacheConfig {
  /// On by default: every result is exact, so the cache moves time and
  /// memory, never costs or trajectories. false routes every evaluation.
  bool enabled = true;

  /// Byte budget for the cache, split evenly over its 64 LRU sets. An
  /// entry costs 88 bytes plus its edge encoding (~1 byte per edge at
  /// n <= 80, ~2 at n = 2000), so the default holds ~900 topologies at
  /// n = 30 and a few hundred at n = 80. A synthesis there
  /// inserts a few thousand distinct ones, but repeats are recent: the hit
  /// rate is 0.76 at n = 30 with 64 KiB or 16 MiB alike. An entry larger
  /// than one set's share (2 KiB by default) is not stored, so at
  /// n = 2000-10000 the default cache stays empty.
  std::size_t max_bytes = std::size_t{128} << 10;  ///< 128 KiB

  friend bool operator==(const EvalCacheConfig&,
                         const EvalCacheConfig&) = default;
};

/// When the delta evaluation engine (incremental re-routing against a
/// retained parent's shortest-path trees) is active. --dsssp on the CLI.
enum class DsspMode {
  kOff,   ///< always run full sweeps
  kOn,    ///< always attempt parent-delta evaluation
  kAuto,  ///< on from delta_auto_threshold nodes up (below it, state copies
          ///< cost more than the sweeps they save)
};

/// Tuning for the delta evaluation engine. Every setting is exact: the
/// incremental update is bit-identical to the full sweep, so these knobs
/// move time and memory, never results.
struct DeltaConfig {
  DsspMode mode = DsspMode::kOff;

  /// Max edge-set diff against a retained parent to delta from (K). Beyond
  /// it the affected regions approach the whole graph and full sweeps win.
  /// 32 covers most GA crossover children, not just mutants: on recorded
  /// GA traces, repairs stay far cheaper than a fresh sweep even at this
  /// distance, and a tighter bound mostly converts hits into fallbacks.
  std::size_t max_diff_edges = 32;

  /// Per-source fallback: abandon the incremental update and run a full
  /// sweep for that source once more than max_resettle_ratio * n vertices
  /// needed recomputation. Incremental resettles are much cheaper per label
  /// than a sweep's, so the cutoff pays only when repairs approach the
  /// whole graph.
  double max_resettle_ratio = 0.75;

  /// Parent routing states retained (LRU ring). Each state holds n trees +
  /// a topology copy, ~29 n^2 bytes; sized so the previous GA generation's
  /// offspring are still resident when their mutants are scored.
  std::size_t retained_states = 24;

  /// Byte budget for the whole retained-state ring. The effective capacity
  /// is resolved_states(n) — retained_states shrunk until the ring fits —
  /// so the delta engine's memory is bounded in bytes, not state count: at
  /// n <= ~600 the default budget holds all 24 states (existing behaviour),
  /// while at city scale the quadratic states stop fitting and the engine
  /// degrades to fewer states and finally (capacity 0) switches itself off.
  /// Like every delta knob this moves time and memory, never results.
  std::size_t max_state_bytes = std::size_t{256} << 20;  ///< 256 MiB

  /// Estimated resident bytes of one retained state at n nodes (n trees at
  /// ~29 bytes per node: dist 8 + parent 8 + order 8 + hops 4 + settled 1).
  static std::size_t state_bytes(std::size_t n) { return 29 * n * n; }

  /// Ring capacity at n nodes under the byte budget (possibly 0).
  std::size_t resolved_states(std::size_t n) const {
    const std::size_t per = state_bytes(n);
    if (per == 0) return retained_states;
    return std::min(retained_states, max_state_bytes / per);
  }

  /// kAuto switches the engine on at this node count.
  std::size_t auto_threshold = 16;

  /// True iff the engine runs for n-node topologies (the mode says on AND
  /// at least one retained state fits the byte budget).
  bool enabled(std::size_t n) const {
    if (resolved_states(n) == 0) return false;
    if (mode == DsspMode::kOn) return true;
    if (mode == DsspMode::kAuto) return n >= auto_threshold;
    return false;
  }

  friend bool operator==(const DeltaConfig&, const DeltaConfig&) = default;
};

/// Counters for the delta evaluation engine; merged across worker clones
/// like EvalCacheStats (merge_stats transfers and resets).
struct DeltaStats {
  std::uint64_t hits = 0;       ///< evaluations served by incremental updates
  std::uint64_t fallbacks = 0;  ///< dsssp-enabled evaluations that needed a
                                ///< full sweep (no parent within K edges)
  std::uint64_t vertices_resettled = 0;  ///< labels recomputed incrementally

  DeltaStats& operator+=(const DeltaStats& other) {
    hits += other.hits;
    fallbacks += other.fallbacks;
    vertices_resettled += other.vertices_resettled;
    return *this;
  }

  friend bool operator==(const DeltaStats&, const DeltaStats&) = default;
};

/// Counters for the resilience engine (cost/resilience.h); merged across
/// worker clones like DeltaStats (merge_stats transfers and resets).
struct ResilienceStats {
  std::uint64_t sweeps = 0;         ///< candidate assessments run
  std::uint64_t scenarios = 0;      ///< failure scenarios swept
  std::uint64_t delta_repairs = 0;  ///< per-source trees repaired incrementally
  std::uint64_t fresh_trees = 0;    ///< per-source trees needing a full sweep
  std::uint64_t vertices_resettled = 0;  ///< labels recomputed incrementally

  ResilienceStats& operator+=(const ResilienceStats& other) {
    sweeps += other.sweeps;
    scenarios += other.scenarios;
    delta_repairs += other.delta_repairs;
    fresh_trees += other.fresh_trees;
    vertices_resettled += other.vertices_resettled;
    return *this;
  }

  friend bool operator==(const ResilienceStats&,
                         const ResilienceStats&) = default;
};

/// Multipath routing settings for the evaluation engine
/// (`cold synth --multipath off|ecmp|wcmp`). The mode changes how loads are
/// computed (net/multipath.h), and the weights add utilization terms to the
/// objective — so, like ResilienceConfig, an active config salts the cache
/// key (see Evaluator::cache_salt). On unique-shortest-path topologies ECMP
/// loads — and therefore costs at zero weights — are bit-identical to the
/// single-path engine's.
struct MultipathConfig {
  MultipathMode mode = MultipathMode::kOff;
  /// Objective weight on max_e load_e / reference_capacity. 0.0 adds an
  /// exact 0.0 term (0.0 * finite == 0.0) — totals match the plain
  /// objective bit for bit.
  double max_util_weight = 0.0;
  /// Objective weight on sum_e max(0, load_e / reference_capacity - 1).
  double oversub_weight = 0.0;

  /// True iff the engine routes over the shortest-path DAG (the weights
  /// alone do nothing without a mode: single-path loads feed no
  /// MultipathSummary).
  bool enabled() const { return mode != MultipathMode::kOff; }

  friend bool operator==(const MultipathConfig&,
                         const MultipathConfig&) = default;
};

/// Evaluation-engine knobs threaded from config/CLI down to the Evaluator.
struct EvalEngineConfig {
  EvalCacheConfig cache;
  SpAlgorithm sp_algorithm = SpAlgorithm::kAuto;
  DeltaConfig delta;
  /// Survivability term of the objective (cost/resilience.h evaluates it).
  /// Unlike the other engine knobs this one changes costs — resilient and
  /// plain evaluations are therefore cached under different key salts so
  /// the two objectives can never conflate (see Evaluator::cache_salt).
  ResilienceConfig resilience;
  /// Multipath routing mode + utilization objective terms. Mutually
  /// exclusive with the resilient objective for now (the failure sweeps
  /// assess single-path routing; the Evaluator rejects the combination).
  MultipathConfig multipath;

  friend bool operator==(const EvalEngineConfig&,
                         const EvalEngineConfig&) = default;
};

/// Monotonic cache counters. Aggregates across worker clones the same way
/// evaluation counts do (merge_stats transfers and resets).
struct EvalCacheStats {
  std::uint64_t hits = 0;       ///< verified fingerprint matches
  std::uint64_t misses = 0;     ///< lookups that fell through to routing
  std::uint64_t inserts = 0;    ///< entries written
  std::uint64_t evictions = 0;  ///< LRU replacements of live entries

  std::uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const std::uint64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }

  EvalCacheStats& operator+=(const EvalCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    evictions += other.evictions;
    return *this;
  }

  friend bool operator==(const EvalCacheStats&,
                         const EvalCacheStats&) = default;
};

/// CostCache internals: the compact edge-set encoding, the verification
/// that makes fingerprint collisions harmless, and the byte-bounded LRU set
/// each shard holds.
namespace cache_detail {

/// Number of lock-striped shards, one LRU set each. Power of two: the
/// fingerprint's high bits index it.
inline constexpr std::size_t kSets = 64;

/// The shard a key belongs to. The key is an avalanched fingerprint
/// XOR an avalanched salt, so any six bits spread keys evenly.
inline std::size_t set_index(std::uint64_t key) {
  return static_cast<std::size_t>(key >> 48) & (kSets - 1);
}

/// Writes `g`'s edge set to `out` as LEB128 varint gaps between the sorted
/// pair indices u * n + v, u < v (the first gap is from 0).
void encode_edges(const Topology& g, std::vector<std::uint8_t>& out);

/// What an insert did: whether the entry is now resident (false only when
/// it is larger than a whole set's budget) and how many live entries it
/// evicted to make room.
struct InsertResult {
  bool stored = false;
  std::size_t evicted = 0;
};

/// One LRU set in a single byte slab of the set's budget, allocated on its
/// first insert: fixed-size slots grow from the front, variable-size tails
/// (the two summaries, only when either is set, then the edge encoding)
/// from the back. Evicting leaves a hole among the tails; an insert that
/// finds no contiguous room packs the live tails first. So a set makes one
/// allocation in its lifetime and never exceeds its budget. Not
/// thread-safe.
class EntrySet {
 public:
  /// On a verified hit for `g` under `key`, copies the stored breakdown to
  /// `out`, freshens the entry as most recently used and returns true.
  /// Verification: n and m match, and the stored edge encoding equals
  /// `g`'s, decoded and merged against its sorted adjacency.
  bool find(const Topology& g, std::uint64_t key, CostBreakdown& out);

  /// Stores `b` for `g` under `key`, replacing `g`'s resident entry if any,
  /// and evicts least-recently-used entries until the new one, holding
  /// `code` (encode_edges(g)), fits in the set's `budget` bytes. Every
  /// call must pass the same budget.
  InsertResult insert(const Topology& g, const CostBreakdown& b,
                      std::uint64_t key, std::span<const std::uint8_t> code,
                      std::size_t budget);

  std::size_t size() const { return count_; }

  /// Bytes allocated: the slab once the set has stored an entry, else 0.
  std::size_t resident_bytes() const { return capacity_; }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t stamp;  ///< LRU access clock of this set
    std::uint32_t n;
    std::uint32_t m;
    std::uint32_t tail_offset;  ///< within the slab
    std::uint32_t tail_size;
    bool feasible;
    bool has_summaries;
    /// existence, length, bandwidth, node, resilience, multipath
    std::array<double, 6> terms;
  };

 public:
  /// Slab bytes one entry costs besides its tail.
  static constexpr std::size_t kSlotBytes = sizeof(Slot);
  static constexpr std::size_t kSummaryBytes =
      sizeof(ResilienceSummary) + sizeof(MultipathSummary);

 private:
  Slot* slots() const {
    return std::launder(reinterpret_cast<Slot*>(slab_.get()));
  }
  std::size_t find_index(const Topology& g, std::uint64_t key) const;
  bool matches(const Slot& s, const Topology& g) const;
  /// True once a slot and `tail_size` contiguous tail bytes are free,
  /// packing the tails if that is enough; false if eviction is needed.
  bool make_room(std::size_t tail_size);
  void remove(std::size_t i);

  std::unique_ptr<std::byte[]> slab_;  ///< null until the first insert
  std::size_t capacity_ = 0;           ///< slab bytes
  std::size_t count_ = 0;              ///< live slots
  std::size_t tail_low_ = 0;   ///< tails live in [tail_low_, capacity_)
  std::size_t tail_bytes_ = 0; ///< of which live (the rest are holes)
  std::uint64_t clock_ = 0;
};

}  // namespace cache_detail

/// Sharded, lock-striped, fingerprint-keyed memo table for CostBreakdown
/// results. Thread-safe; one instance is shared by a root Evaluator and all
/// its clones (see the file comment).
class CostCache {
 public:
  explicit CostCache(const EvalCacheConfig& config);

  /// Looks up `g`; on a verified hit copies the stored breakdown into `out`
  /// and returns true. Otherwise counts a miss, including on fingerprint
  /// collisions that fail verification. `salt` is XORed into the lookup
  /// key so evaluators scoring the same topologies under different
  /// objectives (plain vs resilient) index disjoint entries: equal
  /// topologies have equal fingerprints, so their keys differ unless the
  /// salts match too.
  bool find(const Topology& g, CostBreakdown& out, std::uint64_t salt = 0);

  /// Stores `b` as the breakdown for `g` under `salt`, evicting the
  /// shard's LRU entries if needed. Replaces `g`'s entry if it is already
  /// resident under the same salt (e.g. when two workers missed on the
  /// same topology concurrently).
  cache_detail::InsertResult insert(const Topology& g, const CostBreakdown& b,
                                    std::uint64_t salt = 0);

  /// Sums the per-shard counters (locks each shard once).
  EvalCacheStats stats() const;

  /// Live entries across all shards (locks each shard once).
  std::size_t size() const;

  /// Slab bytes allocated across all shards (locks each shard once); never
  /// above max_bytes(). The fixed shard headers are not included.
  std::size_t resident_bytes() const;

  std::size_t max_bytes() const {
    return shard_budget_ * cache_detail::kSets;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    cache_detail::EntrySet set;
    EvalCacheStats stats;
  };

  /// The shard array, allocated by the first call (of any method).
  Shard* shards() const;

  /// Sums read(shard) over all shards, locking each once.
  template <typename T, typename Read>
  T sum_shards(Read read) const;

  std::size_t shard_budget_;  ///< each shard's share of the byte budget
  mutable std::once_flag allocate_once_;
  mutable std::unique_ptr<Shard[]> shards_;  ///< set under allocate_once_
};

}  // namespace cold
