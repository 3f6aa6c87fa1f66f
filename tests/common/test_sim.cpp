#include "common/sim.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace xg::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::Seconds(1.5).micros(), 1500000);
  EXPECT_EQ(SimTime::Millis(2.0).micros(), 2000);
  EXPECT_DOUBLE_EQ(SimTime::Minutes(2.0).seconds(), 120.0);
  EXPECT_DOUBLE_EQ(SimTime::Hours(1.0).minutes(), 60.0);
  EXPECT_DOUBLE_EQ(SimTime::Micros(500).millis(), 0.5);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::Seconds(2.0);
  const SimTime b = SimTime::Seconds(0.5);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.5);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 1.5);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, SimTime::Millis(2000.0));
}

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Millis(30), [&] { order.push_back(3); });
  sim.Schedule(SimTime::Millis(10), [&] { order.push_back(1); });
  sim.Schedule(SimTime::Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now().millis(), 30.0);
}

TEST(Simulation, FifoTieBreakAtSameInstant) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(SimTime::Millis(1), [&] {
    ++fired;
    sim.Schedule(SimTime::Millis(1), [&] { ++fired; });
  });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.Now().millis(), 2.0);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  EventHandle h = sim.Schedule(SimTime::Millis(10), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(h));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, DoubleCancelFails) {
  Simulation sim;
  EventHandle h = sim.Schedule(SimTime::Millis(1), [] {});
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_FALSE(sim.Cancel(h));
}

TEST(Simulation, CancelAfterRunFails) {
  Simulation sim;
  EventHandle h = sim.Schedule(SimTime::Millis(1), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(h));
}

TEST(Simulation, CancelInvalidHandle) {
  Simulation sim;
  EXPECT_FALSE(sim.Cancel(EventHandle{}));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<double> times;
  for (int i = 1; i <= 5; ++i) {
    sim.Schedule(SimTime::Seconds(i), [&times, &sim] {
      times.push_back(sim.Now().seconds());
    });
  }
  const size_t ran = sim.RunUntil(SimTime::Seconds(3.0));
  EXPECT_EQ(ran, 3u);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 3.0);
  EXPECT_EQ(sim.pending(), 2u);
  // The rest still run afterwards.
  sim.Run();
  EXPECT_EQ(times.size(), 5u);
}

TEST(Simulation, RunUntilAdvancesClockWithNoEvents) {
  Simulation sim;
  sim.RunUntil(SimTime::Hours(2.0));
  EXPECT_DOUBLE_EQ(sim.Now().hours(), 2.0);
}

TEST(Simulation, ScheduleInPastClampsToNow) {
  Simulation sim;
  // TestBody-scoped: the inner callback fires after the outer lambda's
  // frame is gone, so it must not capture anything local to it.
  bool ran = false;
  sim.Schedule(SimTime::Seconds(10), [&] {
    sim.ScheduleAt(SimTime::Seconds(1), [&ran] { ran = true; });
    // The event must still be pending, not lost.
    EXPECT_GE(sim.pending(), 1u);
  });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 10.0);
}

TEST(Simulation, StepExecutesOneEvent) {
  Simulation sim;
  int count = 0;
  sim.Schedule(SimTime::Millis(1), [&] { ++count; });
  sim.Schedule(SimTime::Millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(count, 2);
}

TEST(Simulation, PendingCountsLiveEventsOnly) {
  Simulation sim;
  EventHandle h = sim.Schedule(SimTime::Millis(1), [] {});
  sim.Schedule(SimTime::Millis(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(h);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, StaleHandleDoesNotCancelSlotReuser) {
  Simulation sim;
  EventHandle first = sim.Schedule(SimTime::Millis(1), [] {});
  sim.Run();
  // The first event's slot is free again; the next event reuses it.
  bool ran = false;
  EventHandle second = sim.Schedule(SimTime::Millis(1), [&] { ran = true; });
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sim.Cancel(second));
}

TEST(Simulation, CancelOfRunningEventFromItsOwnCallbackFails) {
  Simulation sim;
  EventHandle self;
  bool cancelled = true;
  self = sim.Schedule(SimTime::Millis(1),
                      [&] { cancelled = sim.Cancel(self); });
  sim.Run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulation, CallbackMayStepTheKernelItself) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Millis(1), [&] {
    order.push_back(1);
    EXPECT_TRUE(sim.Step());  // runs event 2 from inside event 1
    sim.Schedule(SimTime::Millis(1), [&] { order.push_back(4); });
    sim.Schedule(SimTime::Millis(0), [&] { order.push_back(3); });
  });
  sim.Schedule(SimTime::Millis(2), [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, MoveOnlyCaptureRuns) {
  Simulation sim;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  sim.Schedule(SimTime::Millis(1),
               [&seen, v = std::move(value)] { seen = *v; });
  sim.Run();
  EXPECT_EQ(seen, 42);
}

// Move-only callable with a Bytes-sized payload that counts how often a
// live (not moved-from) instance runs and is destroyed.
template <size_t Bytes>
struct Tracked {
  std::array<unsigned char, Bytes> payload{};
  int* runs;
  int* destroyed;
  bool owner = true;
  Tracked(int* r, int* d) : runs(r), destroyed(d) {}
  Tracked(Tracked&& o) noexcept
      : payload(o.payload), runs(o.runs), destroyed(o.destroyed) {
    o.owner = false;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (owner) ++*destroyed;
  }
  void operator()() { ++*runs; }
};

template <size_t Bytes>
void ExpectEachCaptureDestroyedOnce() {
  static_assert(sizeof(Tracked<Bytes>) >= Bytes);
  int runs = 0;
  int destroyed = 0;
  {
    Simulation sim;
    sim.Schedule(SimTime::Millis(1), Tracked<Bytes>(&runs, &destroyed));
    sim.Run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 1);

    EventHandle h =
        sim.Schedule(SimTime::Millis(1), Tracked<Bytes>(&runs, &destroyed));
    EXPECT_TRUE(sim.Cancel(h));
    EXPECT_EQ(destroyed, 1);  // released when popped, not by Cancel
    sim.Run();
    EXPECT_EQ(destroyed, 2);

    sim.Schedule(SimTime::Millis(1), Tracked<Bytes>(&runs, &destroyed));
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 3);  // the pending one, by ~Simulation
}

TEST(Simulation, LargeCaptureDestroyedOnceWhetherRunCancelledOrPending) {
  static_assert(sizeof(Tracked<64>) > Callback::kInlineBytes);
  ExpectEachCaptureDestroyedOnce<64>();
}

TEST(Simulation, InlineCaptureDestroyedOnceWhetherRunCancelledOrPending) {
  static_assert(sizeof(Tracked<8>) <= Callback::kInlineBytes);
  ExpectEachCaptureDestroyedOnce<8>();
}

TEST(Simulation, RunUntilKeepsFifoOrderAcrossTheDeadline) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Millis(5), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Millis(5), [&] { order.push_back(2); });
  EXPECT_EQ(sim.RunUntil(SimTime::Millis(4)), 0u);
  sim.ScheduleAt(SimTime::Millis(5), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Periodic, FiresUntilFalse) {
  Simulation sim;
  int fires = 0;
  Periodic(sim, SimTime::Seconds(1), SimTime::Seconds(2),
           [&] { return ++fires < 4; });
  sim.Run();
  EXPECT_EQ(fires, 4);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 7.0);  // 1, 3, 5, 7
}

TEST(Periodic, StartTimeRespected) {
  Simulation sim;
  double first = -1.0;
  Periodic(sim, SimTime::Seconds(5), SimTime::Seconds(1), [&] {
    if (first < 0) first = sim.Now().seconds();
    return false;
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(first, 5.0);
}

// Counts copies of itself; Periodic must move it from firing to firing.
struct CopyCounter {
  int* copies;
  int* fires;
  CopyCounter(int* c, int* f) : copies(c), fires(f) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), fires(o.fires) {
    ++*copies;
  }
  CopyCounter& operator=(const CopyCounter&) = delete;
  bool operator()() { return ++*fires < 5; }
};

TEST(Periodic, MovesTheTaskBetweenFirings) {
  Simulation sim;
  int copies = 0;
  int fires = 0;
  Periodic(sim, SimTime::Seconds(1), SimTime::Seconds(1),
           CopyCounter(&copies, &fires));
  const int after_schedule = copies;
  sim.Run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(copies, after_schedule);
}

}  // namespace
}  // namespace xg::sim
