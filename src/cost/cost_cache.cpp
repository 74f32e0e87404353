#include "cost/cost_cache.h"

#include <algorithm>
#include <cstring>

namespace cold {

namespace cache_detail {

namespace {

/// Calls `visit(p)` for every pair index p = u * n + v, u < v, of `g`'s
/// edges in increasing order; stops early (returning false) when `visit`
/// does.
template <typename Visit>
bool for_each_pair_index(const Topology& g, Visit visit) {
  const std::uint64_t n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    const std::span<const NodeId> nb = g.neighbors(u);
    for (auto it = std::upper_bound(nb.begin(), nb.end(), u); it != nb.end();
         ++it) {
      if (!visit(u * n + *it)) return false;
    }
  }
  return true;
}

}  // namespace

void encode_edges(const Topology& g, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(g.num_edges());  // at least one byte per edge
  std::uint64_t prev = 0;
  for_each_pair_index(g, [&](std::uint64_t p) {
    std::uint64_t gap = p - prev;
    prev = p;
    for (; gap >= 0x80; gap >>= 7) {
      out.push_back(static_cast<std::uint8_t>(gap | 0x80));
    }
    out.push_back(static_cast<std::uint8_t>(gap));
    return true;
  });
}

bool EntrySet::matches(const Slot& s, const Topology& g) const {
  if (s.n != g.num_nodes() || s.m != g.num_edges()) return false;
  const std::size_t skip = s.has_summaries ? kSummaryBytes : 0;
  const auto* p = reinterpret_cast<const std::uint8_t*>(slab_.get()) +
                  s.tail_offset + skip;
  const std::uint8_t* const end = p + (s.tail_size - skip);
  std::uint64_t prev = 0;
  const bool all_equal = for_each_pair_index(g, [&](std::uint64_t want) {
    std::uint64_t gap = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (p == end) return false;
      const std::uint8_t byte = *p++;
      gap |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
    prev += gap;
    return prev == want;
  });
  return all_equal && p == end;
}

std::size_t EntrySet::find_index(const Topology& g,
                                 std::uint64_t key) const {
  const Slot* s = slots();
  for (std::size_t i = 0; i < count_; ++i) {
    if (s[i].key == key && matches(s[i], g)) return i;
  }
  return count_;
}

bool EntrySet::find(const Topology& g, std::uint64_t key,
                    CostBreakdown& out) {
  const std::size_t i = find_index(g, key);
  if (i == count_) return false;
  Slot& s = slots()[i];
  s.stamp = ++clock_;
  out = CostBreakdown{};
  out.existence = s.terms[0];
  out.length = s.terms[1];
  out.bandwidth = s.terms[2];
  out.node = s.terms[3];
  out.resilience = s.terms[4];
  out.multipath = s.terms[5];
  out.feasible = s.feasible;
  if (s.has_summaries) {
    const std::byte* tail = slab_.get() + s.tail_offset;
    std::memcpy(&out.resilience_summary, tail, sizeof(ResilienceSummary));
    std::memcpy(&out.multipath_summary, tail + sizeof(ResilienceSummary),
                sizeof(MultipathSummary));
  }
  return true;
}

bool EntrySet::make_room(std::size_t tail_size) {
  const std::size_t slots_end = (count_ + 1) * sizeof(Slot);
  if (slots_end + tail_size <= tail_low_) return true;
  if (slots_end + tail_bytes_ + tail_size > capacity_) return false;
  // Enough bytes, but holes split them: pack the live tails against the
  // slab's end, highest first, so every move goes up or stays.
  Slot* s = slots();
  std::sort(s, s + count_, [](const Slot& a, const Slot& b) {
    return a.tail_offset > b.tail_offset;
  });
  std::size_t low = capacity_;
  for (std::size_t i = 0; i < count_; ++i) {
    low -= s[i].tail_size;
    std::memmove(slab_.get() + low, slab_.get() + s[i].tail_offset,
                 s[i].tail_size);
    s[i].tail_offset = static_cast<std::uint32_t>(low);
  }
  tail_low_ = low;
  return true;
}

void EntrySet::remove(std::size_t i) {
  Slot* s = slots();
  tail_bytes_ -= s[i].tail_size;
  s[i] = s[count_ - 1];  // order within a set is irrelevant
  if (--count_ == 0) tail_low_ = capacity_;
}

InsertResult EntrySet::insert(const Topology& g, const CostBreakdown& b,
                              std::uint64_t key,
                              std::span<const std::uint8_t> code,
                              std::size_t budget) {
  InsertResult r;
  // A resident copy is replaced, not evicted: its bytes go to the new one.
  const std::size_t resident = find_index(g, key);
  if (resident != count_) remove(resident);
  const bool has_summaries =
      !(b.resilience_summary == ResilienceSummary{}) ||
      !(b.multipath_summary == MultipathSummary{});
  const std::size_t tail_size =
      (has_summaries ? kSummaryBytes : 0) + code.size();
  if (sizeof(Slot) + tail_size > budget) return r;  // can never fit
  if (slab_ == nullptr) {
    slab_ = std::make_unique_for_overwrite<std::byte[]>(budget);
    capacity_ = budget;
    tail_low_ = budget;
  }
  while (!make_room(tail_size)) {
    // Evict the least recently used entry; an empty set always has room.
    const Slot* s = slots();
    std::size_t victim = 0;
    for (std::size_t i = 1; i < count_; ++i) {
      if (s[i].stamp < s[victim].stamp) victim = i;
    }
    remove(victim);
    ++r.evicted;
  }
  tail_low_ -= tail_size;
  tail_bytes_ += tail_size;
  std::byte* tail = slab_.get() + tail_low_;
  if (has_summaries) {
    std::memcpy(tail, &b.resilience_summary, sizeof(ResilienceSummary));
    std::memcpy(tail + sizeof(ResilienceSummary), &b.multipath_summary,
                sizeof(MultipathSummary));
    tail += kSummaryBytes;
  }
  std::memcpy(tail, code.data(), code.size());
  ::new (slab_.get() + count_ * sizeof(Slot)) Slot{
      key,
      ++clock_,
      static_cast<std::uint32_t>(g.num_nodes()),
      static_cast<std::uint32_t>(g.num_edges()),
      static_cast<std::uint32_t>(tail_low_),
      static_cast<std::uint32_t>(tail_size),
      b.feasible,
      has_summaries,
      {b.existence, b.length, b.bandwidth, b.node, b.resilience,
       b.multipath}};
  ++count_;
  r.stored = true;
  return r;
}

}  // namespace cache_detail

CostCache::CostCache(const EvalCacheConfig& config)
    : shard_budget_(config.max_bytes / cache_detail::kSets) {}

CostCache::Shard* CostCache::shards() const {
  // call_once orders the allocation before every caller that returns.
  std::call_once(allocate_once_, [this] {
    shards_ = std::make_unique<Shard[]>(cache_detail::kSets);
  });
  return shards_.get();
}

bool CostCache::find(const Topology& g, CostBreakdown& out,
                     std::uint64_t salt) {
  const std::uint64_t key = g.fingerprint() ^ salt;
  Shard& shard = shards()[cache_detail::set_index(key)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  const bool hit = shard.set.find(g, key, out);
  ++(hit ? shard.stats.hits : shard.stats.misses);
  return hit;
}

cache_detail::InsertResult CostCache::insert(const Topology& g,
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
T CostCache::sum_shards(Read read) const {
  T total{};
  const Shard* all = shards();
  for (std::size_t s = 0; s < cache_detail::kSets; ++s) {
    const std::lock_guard<std::mutex> lock(all[s].mu);
    total += read(all[s]);
  }
  return total;
}

EvalCacheStats CostCache::stats() const {
  return sum_shards<EvalCacheStats>([](const Shard& s) { return s.stats; });
}

std::size_t CostCache::size() const {
  return sum_shards<std::size_t>([](const Shard& s) { return s.set.size(); });
}

std::size_t CostCache::resident_bytes() const {
  return sum_shards<std::size_t>(
      [](const Shard& s) { return s.set.resident_bytes(); });
}

}  // namespace cold
