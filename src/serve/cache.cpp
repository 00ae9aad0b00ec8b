#include "serve/cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "rna/structure_hash.hpp"

namespace srna::serve {

namespace {

std::uint64_t fingerprint_seed(const std::string& fingerprint) noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  for (const char c : fingerprint) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Resolved once: each Registry lookup takes the registry's global mutex, and
// these are bumped on every lookup.
struct Instruments {
  obs::Counter& hits = obs::Registry::instance().counter("serve.cache_hits");
  obs::Counter& misses = obs::Registry::instance().counter("serve.cache_misses");
  obs::Counter& evictions = obs::Registry::instance().counter("serve.cache_evictions");
  obs::Gauge& bytes = obs::Registry::instance().gauge("serve.cache_bytes");
};

const Instruments& instruments() {
  static const Instruments kInstruments;
  return kInstruments;
}

}  // namespace

CacheKey CacheKey::make(const SecondaryStructure& a, const SecondaryStructure& b,
                        std::string fingerprint) {
  return make(a, b, std::move(fingerprint), hash_structure_pair(a, b));
}

CacheKey CacheKey::make(const SecondaryStructure& a, const SecondaryStructure& b,
                        std::string fingerprint, std::uint64_t pair_digest) {
  CacheKey key;
  key.digest = fnv1a_mix(pair_digest, fingerprint_seed(fingerprint));
  key.len_a = a.length();
  key.len_b = b.length();
  key.arcs_a = a.arcs_by_right();
  key.arcs_b = b.arcs_by_right();
  key.fingerprint = std::move(fingerprint);
  return key;
}

ResultCache::ResultCache(CacheConfig config) : capacity_(config.capacity) {
  const std::size_t shard_count = std::max<std::size_t>(1, config.shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) shards_.push_back(std::make_unique<Shard>());
  // Round the per-shard slice up so shards * slice >= capacity; a capacity
  // smaller than the shard count still caches one entry per shard.
  per_shard_capacity_ = capacity_ == 0 ? 0 : (capacity_ + shard_count - 1) / shard_count;
}

std::optional<Score> ResultCache::get(const CacheKey& key, bool count_miss) {
  if (capacity_ == 0) {
    if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    if (count_miss) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      instruments().misses.add();
    }
    return std::nullopt;
  }
  // Refresh recency: splice the node to the front without reallocation.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  hits_.fetch_add(1, std::memory_order_relaxed);
  instruments().hits.add();
  return it->second.value;
}

void ResultCache::put(CacheKey key, Score value) {
  if (capacity_ == 0) return;
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.entries.find(key); it != shard.entries.end()) {
    // Same key solved twice (two workers raced past the same miss): refresh.
    it->second.value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return;
  }
  if (shard.entries.size() >= per_shard_capacity_ && !shard.lru.empty()) {
    const CacheKey* victim = shard.lru.back();
    shard.lru.pop_back();
    bytes_.fetch_sub(victim->footprint_bytes() + sizeof(Entry), std::memory_order_relaxed);
    shard.entries.erase(*victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    instruments().evictions.add();
  }
  const auto [it, inserted] = shard.entries.emplace(std::move(key), Entry{value, {}});
  shard.lru.push_front(&it->first);
  it->second.lru_it = shard.lru.begin();
  insertions_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(it->first.footprint_bytes() + sizeof(Entry), std::memory_order_relaxed);
  instruments().bytes.set(static_cast<double>(bytes_.load(std::memory_order_relaxed)));
  (void)inserted;
}

ResultCache::Stats ResultCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    out.entries += shard->entries.size();
    for (const auto& [key, entry] : shard->entries)
      out.footprint_bytes += key.footprint_bytes() + sizeof(Entry);
  }
  return out;
}

obs::Json ResultCache::stats_json() const {
  const Stats s = stats();
  obs::Json doc = obs::Json::object();
  doc.set("hits", obs::Json(s.hits));
  doc.set("misses", obs::Json(s.misses));
  const std::uint64_t lookups = s.hits + s.misses;
  doc.set("hit_rate", obs::Json(lookups > 0 ? static_cast<double>(s.hits) /
                                                  static_cast<double>(lookups)
                                            : 0.0));
  doc.set("evictions", obs::Json(s.evictions));
  doc.set("insertions", obs::Json(s.insertions));
  doc.set("entries", obs::Json(static_cast<std::uint64_t>(s.entries)));
  doc.set("capacity", obs::Json(static_cast<std::uint64_t>(capacity_)));
  doc.set("shards", obs::Json(static_cast<std::uint64_t>(shards_.size())));
  doc.set("footprint_bytes", obs::Json(static_cast<std::uint64_t>(s.footprint_bytes)));
  return doc;
}

void ResultCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries)
      bytes_.fetch_sub(key.footprint_bytes() + sizeof(Entry), std::memory_order_relaxed);
    shard->entries.clear();
    shard->lru.clear();
  }
  instruments().bytes.set(static_cast<double>(bytes_.load(std::memory_order_relaxed)));
}

}  // namespace srna::serve
