#include "serve/cache.hpp"

#include <utility>

namespace xg::serve {

AdvisoryCache::AdvisoryCache(CacheConfig cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.shard_capacity == 0) cfg_.shard_capacity = 1;
  shards_.resize(cfg_.shards);
}

AdvisoryCache::LookupResult AdvisoryCache::Lookup(const HashedKey& key,
                                                  int64_t now_us) {
  Shard& sh = ShardFor(key);
  const auto* found = sh.index.Find(key);
  if (found == nullptr) {
    ++misses_;
    return {};
  }
  const auto node = *found;
  const int64_t age_us = now_us - node->complete_us;
  if (!WithinValidityUs(age_us, cfg_.validity_us)) {
    ++expired_;
    sh.index.Erase(key);
    sh.lru.erase(node);
    return {.outcome = Outcome::kExpired, .age_us = age_us};
  }
  // Touch: move to the recency front.
  sh.lru.splice(sh.lru.begin(), sh.lru, node);
  LookupResult r;
  r.payload = &node->payload;
  r.age_us = age_us;
  r.complete_us = node->complete_us;
  if (age_us <= cfg_.fresh_us) {
    ++hits_fresh_;
    r.outcome = Outcome::kFresh;
  } else {
    ++hits_stale_;
    r.outcome = Outcome::kStale;
  }
  return r;
}

void AdvisoryCache::Insert(const HashedKey& key,
                           std::vector<uint8_t> payload, int64_t complete_us) {
  Shard& sh = ShardFor(key);
  ++insertions_;
  if (complete_us >= latest_complete_us_) {
    latest_payload_ = payload;
    latest_complete_us_ = complete_us;
  }
  if (const auto* found = sh.index.Find(key)) {
    const auto node = *found;
    node->payload = std::move(payload);
    node->complete_us = complete_us;
    sh.lru.splice(sh.lru.begin(), sh.lru, node);
    return;
  }
  if (sh.lru.size() >= cfg_.shard_capacity) {
    ++evictions_;
    sh.index.Erase(sh.lru.back().key);
    sh.lru.pop_back();
  }
  sh.lru.push_front(Entry{key, std::move(payload), complete_us});
  sh.index.Insert(key, sh.lru.begin());
}

const std::vector<uint8_t>* AdvisoryCache::LatestValid(int64_t now_us) const {
  if (latest_complete_us_ < 0) return nullptr;
  if (!WithinValidityUs(now_us - latest_complete_us_, cfg_.validity_us)) {
    return nullptr;
  }
  return &latest_payload_;
}

size_t AdvisoryCache::size() const {
  size_t n = 0;
  for (const Shard& sh : shards_) n += sh.lru.size();
  return n;
}

}  // namespace xg::serve
