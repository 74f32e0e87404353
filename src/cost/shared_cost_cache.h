// Cross-worker memoized cost evaluation — the shared sibling of CostCache.
//
// The parallel GA scores offspring on Evaluator clones, and with private
// per-clone caches an elite evaluated on worker 0 misses on worker 3.
// SharedCostCache is one cache all clones of a run share: the same
// byte-bounded LRU sets as CostCache (cache_detail::EntrySet), each set a
// shard guarded by its own mutex (lock striping). A lookup or insert locks
// exactly one shard, so workers touch disjoint shards concurrently and
// colliding workers serialize only per-shard.
//
// Placement: the shard comes from six bits of the already avalanched
// 64-bit Zobrist fingerprint (graph/topology.h; cache_detail::set_index).
//
// Memory: construction allocates nothing; the first call allocates the
// kShards shard headers (~9 KB), and a shard's slab (its share of
// EvalCacheConfig::max_bytes) waits for that shard's first insert. So
// building an evaluator costs no cache set-up, a run that never repeats a
// topology pays almost nothing, and resident_bytes() never exceeds the
// budget.
//
// Collision policy is identical to CostCache and non-negotiable: a hit is
// reported only after full edge-set verification (cache_detail::matches),
// so fingerprint collisions can never corrupt a result. find() copies the
// stored breakdown out under the shard lock — returning a pointer would
// race with a concurrent eviction.
//
// Determinism: hits return exact stored breakdowns, so sharing the cache
// changes hit rates and wall-clock only, never any cost, trajectory or
// trace. Per-shard counters are updated under the shard lock, which makes
// the aggregate stats() conservation exact: hits + misses == find calls,
// regardless of interleaving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "graph/topology.h"

namespace cold {

/// Sharded, lock-striped, fingerprint-keyed memo table for CostBreakdown
/// results. Thread-safe; one instance is shared by every Evaluator clone of
/// a run (see EvalCacheConfig::shared).
class SharedCostCache {
 public:
  explicit SharedCostCache(const EvalCacheConfig& config);

  /// Looks up `g`; on a verified hit copies the stored breakdown into `out`
  /// and returns true. Counts one hit or one miss on the shard. `salt` is
  /// XORed into the lookup key (same contract as CostCache::find) so plain
  /// and resilient evaluations of identical topologies never conflate.
  bool find(const Topology& g, CostBreakdown& out, std::uint64_t salt = 0);

  /// Stores `b` as the breakdown for `g` under `salt`, evicting the
  /// shard's LRU entries if needed (replacing `g`'s entry if it is already
  /// resident under the same salt, e.g. when two workers missed on the same
  /// topology concurrently).
  cache_detail::InsertResult insert(const Topology& g, const CostBreakdown& b,
                                    std::uint64_t salt = 0);

  /// Sums the per-shard counters (locks each shard once).
  EvalCacheStats stats() const;

  /// Live entries across all shards (locks each shard once).
  std::size_t size() const;

  /// Slab bytes allocated across all shards (locks each shard once); never
  /// above max_bytes(). The fixed shard headers are not included.
  std::size_t resident_bytes() const;

  std::size_t max_bytes() const { return shard_budget_ * kShards; }

  static constexpr std::size_t kShards = cache_detail::kSets;

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
