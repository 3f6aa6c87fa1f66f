// Field-condition quantization for the advisory serving tier.
//
// The paper's CFD advisory answers "what is the interior microclimate
// given the current exterior conditions" — and stays valid for ~23
// minutes. Two requesters whose exterior conditions differ by less than
// the solver's meaningful input resolution therefore want the *same*
// answer, so the serving tier keys its cache on a quantized condition
// vector: wind speed, wind direction, temperature, and humidity are each
// snapped to a configurable bucket, and the bucketed 4-tuple is the cache
// key. Nearby conditions collapse onto one key; one CFD run per key per
// validity window serves every requester in that neighborhood.
//
// The hash is FNV-1a over the bucket indices (never std::hash), so key ->
// shard placement is identical across runs, platforms, and libstdc++
// versions — the same-seed byte-identity the chaos suite depends on. The
// server hashes each request's key once (HashedKey) and carries the hash
// through admission, the cache and the flight table.
#pragma once

#include <cstdint>
#include <string>

namespace xg::serve {

/// Exterior conditions a requester is asking an advisory for (the CFD
/// boundary inputs; mirrors core::TelemetryFrame's exterior aggregates).
struct FieldConditions {
  double wind_ms = 0.0;
  double dir_deg = 0.0;  ///< wrapped into [0, 360)
  double temp_c = 0.0;
  double humidity_pct = 0.0;
};

struct QuantizerConfig {
  /// Bucket widths. Defaults track the advisor's decision thresholds: a
  /// 0.5 m/s wind step resolves the 0.9 / 2.5 m/s spray limits, 22.5°
  /// gives 16 compass sectors, 1 °C resolves the frost thresholds.
  double wind_step_ms = 0.5;
  double dir_step_deg = 22.5;
  double temp_step_c = 1.0;
  double humidity_step_pct = 5.0;
};

/// Quantized condition vector: the advisory cache key.
struct ConditionKey {
  int32_t wind = 0;
  int32_t dir = 0;
  int32_t temp = 0;
  int32_t humidity = 0;

  bool operator==(const ConditionKey& o) const = default;
  /// Lexicographic order, for callers that keep keys in ordered maps.
  bool operator<(const ConditionKey& o) const;

  /// Deterministic FNV-1a over the four bucket indices.
  uint64_t Hash() const;
  /// Stable shard assignment in [0, shards).
  size_t ShardOf(size_t shards) const;
  /// "w3 d7 t21 h12" — metric/log label form.
  std::string Describe() const;
};

/// A ConditionKey with its Hash() computed once. Shard placement and the
/// serving tier's flat indexes (KeyTable) read `hash`; the indexes still
/// compare the full key on a hash match.
struct HashedKey {
  ConditionKey key;
  uint64_t hash = 0;

  HashedKey() = default;
  // Implicit: hashing happens here, once, wherever a bare key enters the
  // cache or the server.
  HashedKey(const ConditionKey& k) : key(k), hash(k.Hash()) {}

  /// Same placement as ConditionKey::ShardOf, without rehashing.
  size_t ShardOf(size_t shards) const {
    return shards == 0 ? 0 : static_cast<size_t>(hash % shards);
  }
};

class Quantizer {
 public:
  explicit Quantizer(QuantizerConfig cfg = QuantizerConfig{}) : cfg_(cfg) {}

  const QuantizerConfig& config() const { return cfg_; }

  /// Snap `c` to its bucket 4-tuple. Direction wraps modulo 360 before
  /// bucketing, so 359.9° and 0.1° land in adjacent (not distant) keys.
  ConditionKey KeyFor(const FieldConditions& c) const;

 private:
  QuantizerConfig cfg_;
};

}  // namespace xg::serve
