#include "src/serve/plan_cache.h"

#include <algorithm>
#include <functional>

#include "src/support/trace.h"

namespace incflat::serve {

PlanCache::PlanCache(size_t byte_budget, int shards) : byte_budget_(byte_budget) {
  const int n = std::max(shards, 1);
  shard_budget_ = byte_budget == 0 ? 0 : std::max(byte_budget / n, size_t{1});
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

PlanCache::Shard& PlanCache::shard_for(const std::string& key) {
  const size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

std::shared_ptr<CacheValue> PlanCache::find(const std::string& key,
                                            bool count) {
  return lookup(key, count, count);
}

std::shared_ptr<CacheValue> PlanCache::find_hit(const std::string& key) {
  return lookup(key, /*count_hit=*/true, /*count_miss=*/false);
}

std::shared_ptr<CacheValue> PlanCache::lookup(const std::string& key,
                                              bool count_hit,
                                              bool count_miss) {
  Shard& s = shard_for(key);
  sync::MutexLock lk(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) {
    if (count_miss) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (trace::enabled()) trace::count("serve.cache_miss");
    }
    return nullptr;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  if (count_hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (trace::enabled()) trace::count("serve.cache_hit");
  }
  return it->second->value;
}

void PlanCache::evict_locked(Shard& s, size_t need) {
  if (shard_budget_ == 0) return;
  // Evict cold entries until `need` more bytes fit; never below zero
  // entries (an oversized value is admitted alone and evicted by the next
  // insert — refusing it would make its key recompile forever).
  while (!s.lru.empty() && s.bytes + need > shard_budget_) {
    const Entry& victim = s.lru.back();
    s.bytes -= victim.bytes;
    s.index.erase(victim.key);
    s.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (trace::enabled()) trace::count("serve.evictions");
  }
}

std::shared_ptr<CacheValue> PlanCache::insert(const std::string& key,
                                              std::shared_ptr<CacheValue> value,
                                              size_t bytes) {
  Shard& s = shard_for(key);
  sync::MutexLock lk(s.mu);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Lost a compile race: the first insert wins so every requester shares
    // one entry (and its runtime / batch queue).
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return it->second->value;
  }
  evict_locked(s, bytes);
  s.lru.push_front(Entry{key, std::move(value), bytes});
  s.index.emplace(key, s.lru.begin());
  s.bytes += bytes;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  return s.lru.front().value;
}

bool PlanCache::erase(const std::string& key) {
  Shard& s = shard_for(key);
  sync::MutexLock lk(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) return false;
  s.bytes -= it->second->bytes;
  s.lru.erase(it->second);
  s.index.erase(it);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  if (trace::enabled()) trace::count("serve.evictions");
  return true;
}

void PlanCache::clear() {
  for (auto& sp : shards_) {
    sync::MutexLock lk(sp->mu);
    sp->lru.clear();
    sp->index.clear();
    sp->bytes = 0;
  }
}

CacheStats PlanCache::stats() const {
  CacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.inserts = inserts_.load(std::memory_order_relaxed);
  for (const auto& sp : shards_) {
    sync::MutexLock lk(sp->mu);
    st.bytes += sp->bytes;
    st.entries += sp->lru.size();
  }
  return st;
}

}  // namespace incflat::serve
