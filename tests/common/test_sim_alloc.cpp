// Allocation gate for the event kernel and the WAN message path: once
// warmed up, a schedule+step cycle (or an untraced Wan::Send and its
// delivery) whose capture fits the inline buffer must not touch the heap.
// The global operator new is replaced by a counting one, which is why this
// test is its own executable.
#include "common/rng.hpp"
#include "common/sim.hpp"
#include "cspot/wan.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: gcc would otherwise pair the inlined free() with the
// operator new at each call site and warn about a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace xg::sim {
namespace {

// Hold model: each firing schedules its replacement at a random delay, so
// the pending count stays constant. The capture is 24 bytes.
struct HoldEvent {
  Simulation* sim;
  Rng* rng;
  uint64_t fired;
  void operator()() const {
    sim->Schedule(SimTime::Micros(rng->UniformInt(1, 1000)),
                  HoldEvent{sim, rng, fired + 1});
  }
};
static_assert(sizeof(HoldEvent) == 24);

TEST(SimulationAlloc, SteadyStateHoldDoesNotAllocate) {
  constexpr int kPending = 137;
  Simulation sim;
  Rng rng(17);
  for (int i = 0; i < kPending; ++i) HoldEvent{&sim, &rng, 0}();
  for (int i = 0; i < 10'000; ++i) sim.Step();  // warm-up

  const uint64_t before = g_allocations.load();
  size_t steps = 0;
  for (int i = 0; i < 100'000; ++i) steps += sim.Step() ? 1 : 0;
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(steps, 100'000u);
  EXPECT_EQ(sim.pending(), static_cast<size_t>(kPending));
}

TEST(SimulationAlloc, OversizedCaptureAllocatesOncePerEvent) {
  Simulation sim;
  sim.Schedule(SimTime::Micros(1), [] {});
  sim.Run();  // leaves one free slot and heap capacity for one key

  std::array<uint64_t, 8> big{};
  big[7] = 5;
  uint64_t sum = 0;
  const uint64_t before = g_allocations.load();
  sim.Schedule(SimTime::Micros(1), [big, &sum] { sum += big[7]; });
  EXPECT_EQ(g_allocations.load() - before, 1u);
  sim.Run();
  EXPECT_EQ(sum, 5u);
}

// A 48-byte delivery capture: the largest that stays inline.
struct Delivery {
  uint64_t* delivered;
  uint64_t pad[5];
  void operator()() const { *delivered += 1 + pad[4]; }
};
static_assert(sizeof(Delivery) == Callback::kInlineBytes);

TEST(WanAlloc, SteadyStateSendDoesNotAllocate) {
  Simulation sim;
  cspot::Wan wan(sim, 3);
  const cspot::NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  const cspot::NodeId c = wan.AddNode("c");
  cspot::LinkParams p;
  p.jitter_ms = 0.5;
  ASSERT_TRUE(wan.AddLink("a", "b", p).ok());
  ASSERT_TRUE(wan.AddLink("b", "c", p).ok());
  wan.EnableCircuitBreakers(resil::BreakerConfig{});

  uint64_t delivered = 0;
  auto send_and_deliver = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(wan.Send(a, c, 64, Delivery{&delivered, {}}).ok());
      ASSERT_TRUE(sim.Step());
    }
  };
  send_and_deliver(100);  // warm-up: route table, breaker, fault target

  const uint64_t before = g_allocations.load();
  send_and_deliver(10'000);
  const uint64_t allocated = g_allocations.load() - before;

  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(delivered, 10'100u);
  EXPECT_NE(wan.breaker("a", "c"), nullptr);
}

}  // namespace
}  // namespace xg::sim
