#include "cost/shared_cost_cache.h"

namespace cold {

SharedCostCache::SharedCostCache(const EvalCacheConfig& config)
    : shard_budget_(config.max_bytes / kShards) {}

SharedCostCache::Shard* SharedCostCache::shards() const {
  // call_once orders the allocation before every caller that returns.
  std::call_once(allocate_once_,
                 [this] { shards_ = std::make_unique<Shard[]>(kShards); });
  return shards_.get();
}

bool SharedCostCache::find(const Topology& g, CostBreakdown& out,
                           std::uint64_t salt) {
  const std::uint64_t key = g.fingerprint() ^ salt;
  Shard& shard = shards()[cache_detail::set_index(key)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  const bool hit = shard.set.find(g, key, out);
  ++(hit ? shard.stats.hits : shard.stats.misses);
  return hit;
}

cache_detail::InsertResult SharedCostCache::insert(const Topology& g,
                                                   const CostBreakdown& b,
                                                   std::uint64_t salt) {
  const std::uint64_t key = g.fingerprint() ^ salt;
  std::vector<std::uint8_t> code;  // encoded outside the shard lock
  cache_detail::encode_edges(g, code);
  Shard& shard = shards()[cache_detail::set_index(key)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  const cache_detail::InsertResult r =
      shard.set.insert(g, b, key, code, shard_budget_);
  if (r.stored) ++shard.stats.inserts;
  shard.stats.evictions += r.evicted;
  return r;
}

template <typename T, typename Read>
T SharedCostCache::sum_shards(Read read) const {
  T total{};
  const Shard* all = shards();
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::lock_guard<std::mutex> lock(all[s].mu);
    total += read(all[s]);
  }
  return total;
}

EvalCacheStats SharedCostCache::stats() const {
  return sum_shards<EvalCacheStats>(
      [](const Shard& s) { return s.stats; });
}

std::size_t SharedCostCache::size() const {
  return sum_shards<std::size_t>(
      [](const Shard& s) { return s.set.size(); });
}

std::size_t SharedCostCache::resident_bytes() const {
  return sum_shards<std::size_t>(
      [](const Shard& s) { return s.set.resident_bytes(); });
}

}  // namespace cold
