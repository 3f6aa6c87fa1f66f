// KeyTable: the serving tier's flat hash index from a quantized key to a
// value (a cache shard's LRU position, an in-flight CFD run).
//
// Open addressing with linear probing over a power-of-two slot array, kept
// at most half full. A key's home slot comes from the high bits of its
// FNV-1a hash times a Fibonacci constant: the low bits already picked the
// cache shard, so within one shard's table they are nearly constant. A
// probe compares the 64-bit hash first and the full key only on a match.
// Erase shifts the rest of the probe cluster back instead of leaving a
// tombstone, so lookups stay short under churn.
//
// The table is never iterated, and nothing reads slot positions: which
// slot a key lands in cannot reach any output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "serve/quantize.hpp"

namespace xg::serve {

template <typename V>
class KeyTable {
 public:
  /// The value stored for `k`, or nullptr. Valid until the next Insert or
  /// Erase.
  V* Find(const HashedKey& k) {
    if (size_ == 0) return nullptr;
    for (size_t i = Home(k.hash);; i = Next(i)) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key.hash == k.hash && s.key.key == k.key) return &s.value;
    }
  }

  /// Stores `value` for `k`, which must be absent. The reference is valid
  /// until the next Insert or Erase.
  V& Insert(const HashedKey& k, V value) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    ++size_;
    return Place(k, std::move(value));
  }

  /// Removes `k`; false when it was absent.
  bool Erase(const HashedKey& k) {
    if (size_ == 0) return false;
    size_t hole = Home(k.hash);
    for (;; hole = Next(hole)) {
      const Slot& s = slots_[hole];
      if (!s.used) return false;
      if (s.key.hash == k.hash && s.key.key == k.key) break;
    }
    // Pull back every later cluster member whose probe path crosses the
    // hole, so no lookup stops early at an empty slot.
    const size_t mask = slots_.size() - 1;
    for (size_t j = Next(hole); slots_[j].used; j = Next(j)) {
      const size_t home = Home(slots_[j].key.hash);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    HashedKey key;
    V value{};
    bool used = false;
  };

  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  V& Place(const HashedKey& k, V value) {
    size_t i = Home(k.hash);
    while (slots_[i].used) i = Next(i);
    slots_[i] = Slot{k, std::move(value), true};
    return slots_[i].value;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t cap = old.empty() ? 16 : 2 * old.size();
    slots_ = std::vector<Slot>(cap);
    shift_ = 64;
    for (size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.used) Place(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;  ///< 64 - log2(slots_.size())
};

}  // namespace xg::serve
