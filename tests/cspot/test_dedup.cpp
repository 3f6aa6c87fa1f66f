// The flat dedup table against an ordered-map model: seeded records,
// re-records, lookups of present and absent tokens, and power-loss
// truncations that erase every token past the durable frontier while later
// appends reuse the truncated sequence numbers.
#include "cspot/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"

namespace xg::cspot {
namespace {

TEST(DedupTable, MatchesOrderedMapUnderChurn) {
  contract::ScopedMode mode(contract::Mode::kReturnStatus);
  contract::ResetViolationStats();
  Rng rng(23);
  DedupTable table;
  std::map<uint64_t, SeqNo> model;
  SeqNo next_seq = 0;
  uint64_t next_token = 1;
  std::vector<uint64_t> issued;  // every token ever recorded

  // Sequential tokens (the runtime's minted ones) and hashed ones (the
  // fabric's frame tokens) both occur; neither may be 0.
  auto fresh_token = [&]() -> uint64_t {
    if (rng.Uniform() < 0.5) return next_token++;
    const uint64_t t = rng.NextU64();
    return t == 0 ? 1 : t;
  };
  auto check_all = [&]() {
    ASSERT_EQ(table.size(), model.size());
    for (uint64_t t : issued) {
      auto it = model.find(t);
      ASSERT_EQ(table.Find(t), it == model.end() ? kNoSeq : it->second)
          << "token " << t;
    }
  };

  for (int step = 0; step < 12'000; ++step) {
    const double op = rng.Uniform();
    if (op < 0.55) {
      // A fresh append: a new token at the next sequence number.
      const uint64_t t = fresh_token();
      if (model.count(t) != 0) continue;
      table.Record(t, next_seq);
      model[t] = next_seq++;
      issued.push_back(t);
    } else if (op < 0.75 && !issued.empty()) {
      // A retry re-records a surviving token with its original seq.
      const uint64_t t = issued[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(issued.size()) - 1))];
      auto it = model.find(t);
      if (it != model.end()) table.Record(t, it->second);
    } else if (op < 0.98) {
      // Lookups: a token seen before (possibly erased) or one never seen.
      const uint64_t t =
          issued.empty() || rng.Uniform() < 0.3
              ? rng.NextU64() | 1
              : issued[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(issued.size()) - 1))];
      auto it = model.find(t);
      ASSERT_EQ(table.Find(t), it == model.end() ? kNoSeq : it->second);
    } else {
      // Power loss: the last few appends were volatile.
      const SeqNo keep =
          std::max<SeqNo>(kNoSeq, next_seq - 1 - rng.UniformInt(0, 12));
      table.EraseAbove(keep);
      std::erase_if(model, [keep](const auto& e) { return e.second > keep; });
      next_seq = keep + 1;
      check_all();
    }
    if (step % 1000 == 0) check_all();
  }
  check_all();
  EXPECT_GT(model.size(), 1000u);  // the table grew through several sizes
  EXPECT_EQ(contract::ViolationCount(), 0u);
}

}  // namespace
}  // namespace xg::cspot
