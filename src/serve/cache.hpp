// Sharded advisory cache: quantized field conditions -> serialized CFD
// result.
//
// The payload is an opaque byte blob (core::SerializeResult output) so the
// serve tier depends only on common/obs/resil — core::Fabric owns the
// server, not the other way round. Entries carry the virtual-clock time
// the underlying CFD run completed; freshness is judged against that, not
// against insertion time, so a result replayed through store-and-forward
// after a partition ages correctly.
//
// Freshness bands (age = now - complete_time):
//
//   age <= fresh_us              fresh hit — serve directly
//   fresh_us < age <= validity   stale-but-valid — serve flagged stale;
//                                no CFD refresh (the bound is one run per
//                                key per validity window)
//   age >  validity              expired — never served; the entry is
//                                dropped and the lookup is a miss
//
// The validity boundary is INCLUSIVE: age exactly equal to the window
// still serves, matching DeadlineBudget's exactly-at-deadline-is-not-a-
// miss rule (see WithinValidityUs, shared with core::Fabric's stale-serve
// path).
//
// Each shard is a bounded LRU: a recency list plus a flat hash index
// (KeyTable) into it. Only the list is ever walked, and only from its tail
// for eviction, so eviction order is identical across same-seed runs.
#pragma once

#include <cstdint>
#include <list>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/key_table.hpp"
#include "serve/quantize.hpp"

namespace xg::serve {

/// Inclusive validity-window test shared by the cache, the server's
/// stale-fallback path, and core::Fabric::ServeStaleAdvisories: a result
/// aged exactly `validity_us` still serves.
constexpr bool WithinValidityUs(int64_t age_us, int64_t validity_us) {
  return age_us <= validity_us;
}

struct CacheConfig {
  size_t shards = 8;
  /// Entries per shard; least-recently-used beyond this is evicted.
  size_t shard_capacity = 4096;
  /// Served as a fresh hit up to this age.
  int64_t fresh_us = 300'000'000;  // 5 min
  /// Served (flagged stale) up to this age inclusive; the paper's
  /// ~23-minute actionable window. core::Fabric's stale-advisory path uses
  /// the same window.
  int64_t validity_us = 1'380'000'000;  // 1380 s
};

class XG_SIM_THREAD_CONFINED AdvisoryCache {
 public:
  explicit AdvisoryCache(CacheConfig cfg = CacheConfig{});

  enum class Outcome { kMiss, kExpired, kFresh, kStale };

  struct LookupResult {
    Outcome outcome = Outcome::kMiss;
    /// Valid for kFresh/kStale only; pointer into the cache, stable until
    /// the next Insert/Lookup on the same shard.
    const std::vector<uint8_t>* payload = nullptr;
    int64_t age_us = 0;
    int64_t complete_us = 0;
  };

  /// Look up `key` at virtual time `now_us`. An expired entry is erased
  /// (outcome kExpired) so shard capacity is not held by dead results.
  LookupResult Lookup(const HashedKey& key, int64_t now_us);

  /// Insert/overwrite the result for `key`. `complete_us` is when the CFD
  /// run finished (freshness anchor). Also updates the cache-wide
  /// latest-result fallback used by the shed path.
  void Insert(const HashedKey& key, std::vector<uint8_t> payload,
              int64_t complete_us);

  /// Most recent still-valid payload across all keys, or nullptr. This is
  /// the overload shed fallback: a requester we cannot afford a CFD run
  /// for gets the latest valid advisory instead of an error.
  const std::vector<uint8_t>* LatestValid(int64_t now_us) const;
  int64_t latest_complete_us() const { return latest_complete_us_; }

  const CacheConfig& config() const { return cfg_; }
  size_t size() const;

  uint64_t hits_fresh() const { return hits_fresh_; }
  uint64_t hits_stale() const { return hits_stale_; }
  uint64_t misses() const { return misses_; }
  uint64_t expired() const { return expired_; }
  uint64_t insertions() const { return insertions_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    HashedKey key;
    std::vector<uint8_t> payload;
    int64_t complete_us = 0;
  };
  struct Shard {
    // Recency list, most recent at front; index values point into it.
    std::list<Entry> lru;
    KeyTable<std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(const HashedKey& key) {
    return shards_[key.ShardOf(shards_.size())];
  }

  CacheConfig cfg_;
  std::vector<Shard> shards_;
  std::vector<uint8_t> latest_payload_;
  int64_t latest_complete_us_ = -1;

  uint64_t hits_fresh_ = 0;
  uint64_t hits_stale_ = 0;
  uint64_t misses_ = 0;
  uint64_t expired_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace xg::serve
