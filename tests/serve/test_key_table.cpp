// KeyTable: the flat hash index behind the advisory cache and the flight
// table. Checked against std::map under random churn (growth, backward-
// shift erase across wrapped clusters) and with keys whose 64-bit hashes
// collide outright, where only the full-key compare tells them apart.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "common/rng.hpp"
#include "serve/key_table.hpp"

namespace xg::serve {
namespace {

TEST(KeyTable, MatchesOrderedMapUnderChurn) {
  KeyTable<int> table;
  std::map<ConditionKey, int> ref;
  Rng rng(11);
  for (int op = 0; op < 20'000; ++op) {
    // A small key space, so inserts, hits and erases all recur.
    const ConditionKey k{static_cast<int32_t>(rng.UniformInt(0, 7)),
                         static_cast<int32_t>(rng.UniformInt(0, 15)), 20,
                         static_cast<int32_t>(rng.UniformInt(0, 3))};
    const HashedKey hk(k);
    const uint64_t action = rng.NextU64() % 3;
    if (action == 0) {
      if (ref.count(k) == 0) {
        table.Insert(hk, op);
        ref[k] = op;
      }
    } else if (action == 1) {
      EXPECT_EQ(table.Erase(hk), ref.erase(k) == 1);
    } else {
      const int* v = table.Find(hk);
      const auto it = ref.find(k);
      ASSERT_EQ(v != nullptr, it != ref.end());
      if (v != nullptr) {
        EXPECT_EQ(*v, it->second);
      }
    }
    ASSERT_EQ(table.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    const int* found = table.Find(HashedKey(k));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
}

TEST(KeyTable, FullHashCollisionsCompareTheKey) {
  KeyTable<int> table;
  // Forty keys sharing one hash: one probe cluster, told apart only by
  // the key compare.
  auto collide = [](int32_t w) {
    HashedKey hk;
    hk.key = ConditionKey{w, 0, 0, 0};
    hk.hash = 42;
    return hk;
  };
  for (int32_t w = 0; w < 40; ++w) table.Insert(collide(w), w);
  for (int32_t w = 0; w < 40; w += 3) EXPECT_TRUE(table.Erase(collide(w)));
  EXPECT_FALSE(table.Erase(collide(0)));
  for (int32_t w = 0; w < 40; ++w) {
    const int* v = table.Find(collide(w));
    if (w % 3 == 0) {
      EXPECT_EQ(v, nullptr) << w;
    } else {
      ASSERT_NE(v, nullptr) << w;
      EXPECT_EQ(*v, w);
    }
  }
  EXPECT_EQ(table.Find(HashedKey(ConditionKey{1, 0, 0, 0})), nullptr);
}

}  // namespace
}  // namespace xg::serve
