#include "serve/quantize.hpp"

#include <cmath>
#include <cstdio>
#include <tuple>

namespace xg::serve {

bool ConditionKey::operator<(const ConditionKey& o) const {
  return std::tie(wind, dir, temp, humidity) <
         std::tie(o.wind, o.dir, o.temp, o.humidity);
}

uint64_t ConditionKey::Hash() const {
  uint64_t h = 0xcbf29ce484222325ull;
  const int32_t parts[4] = {wind, dir, temp, humidity};
  for (int32_t p : parts) {
    for (int b = 0; b < 4; ++b) {
      h ^= static_cast<uint8_t>(static_cast<uint32_t>(p) >> (8 * b));
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

size_t ConditionKey::ShardOf(size_t shards) const {
  return HashedKey(*this).ShardOf(shards);
}

std::string ConditionKey::Describe() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "w%d d%d t%d h%d", wind, dir, temp,
                humidity);
  return buf;
}

namespace {
int32_t Bucket(double v, double step) {
  return static_cast<int32_t>(std::floor(v / step));
}
}  // namespace

ConditionKey Quantizer::KeyFor(const FieldConditions& c) const {
  double dir = std::fmod(c.dir_deg, 360.0);
  if (dir < 0.0) dir += 360.0;
  ConditionKey k;
  k.wind = Bucket(c.wind_ms, cfg_.wind_step_ms);
  k.dir = Bucket(dir, cfg_.dir_step_deg);
  k.temp = Bucket(c.temp_c, cfg_.temp_step_c);
  k.humidity = Bucket(c.humidity_pct, cfg_.humidity_step_pct);
  return k;
}

}  // namespace xg::serve
