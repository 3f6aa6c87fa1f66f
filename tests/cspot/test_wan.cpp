#include "cspot/wan.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "fault/injector.hpp"

namespace xg::cspot {
namespace {

class WanTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
};

TEST_F(WanTest, DirectDelivery) {
  Wan wan(sim_, 1);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  LinkParams p;
  p.one_way_ms = 10.0;
  p.jitter_ms = 0.0;
  p.bandwidth_mbps = 0.0;
  ASSERT_TRUE((wan.AddLink("a", "b", p)).ok());
  bool delivered = false;
  EXPECT_TRUE(wan.Send(a, b, 100, [&] { delivered = true; }).ok());
  sim_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim_.Now().millis(), 10.0);
}

TEST_F(WanTest, MultiHopRoutingSumsLatency) {
  Wan wan(sim_, 2);
  const NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  const NodeId c = wan.AddNode("c");
  LinkParams p;
  p.one_way_ms = 5.0;
  p.jitter_ms = 0.0;
  p.bandwidth_mbps = 0.0;
  ASSERT_TRUE((wan.AddLink("a", "b", p)).ok());
  ASSERT_TRUE((wan.AddLink("b", "c", p)).ok());
  bool delivered = false;
  ASSERT_TRUE(wan.Send(a, c, 0, [&] { delivered = true; }).ok());
  sim_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim_.Now().millis(), 10.0);
  auto mean = wan.MeanPathLatencyMs("a", "c");
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(mean.value(), 10.0);
}

TEST_F(WanTest, NoRouteFailsImmediately) {
  Wan wan(sim_, 3);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  const Status no_route = wan.Send(a, b, 0, [] { FAIL(); });
  EXPECT_FALSE(no_route.ok());
  EXPECT_EQ(no_route.code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(wan.MeanPathLatencyMs("a", "b").ok());
  EXPECT_EQ(wan.messages_lost(), 1u);
}

TEST_F(WanTest, SerializationDelayScalesWithBytes) {
  Wan wan(sim_, 4);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  LinkParams p;
  p.one_way_ms = 0.0;
  p.jitter_ms = 0.0;
  p.min_ms = 0.0;
  p.bandwidth_mbps = 8.0;  // 1 ms per 1000 bytes
  ASSERT_TRUE((wan.AddLink("a", "b", p)).ok());
  ASSERT_TRUE(wan.Send(a, b, 1000, [] {}).ok());
  sim_.Run();
  EXPECT_NEAR(sim_.Now().millis(), 1.0, 1e-9);
}

TEST_F(WanTest, LinkDownBlocksRoute) {
  Wan wan(sim_, 5);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  ASSERT_TRUE((wan.AddLink("a", "b", LinkParams{})).ok());
  ASSERT_TRUE(wan.SetLinkUp("a", "b", false).ok());
  EXPECT_FALSE(wan.Send(a, b, 0, [] {}).ok());
  ASSERT_TRUE(wan.SetLinkUp("a", "b", true).ok());
  EXPECT_TRUE(wan.Send(a, b, 0, [] {}).ok());
}

TEST_F(WanTest, SetLinkUpUnknownLink) {
  Wan wan(sim_, 6);
  wan.AddNode("a");
  EXPECT_FALSE(wan.SetLinkUp("a", "zz", false).ok());
}

TEST_F(WanTest, RouteAroundDownLink) {
  Wan wan(sim_, 7);
  const NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  const NodeId c = wan.AddNode("c");
  LinkParams fast;
  fast.one_way_ms = 1.0;
  fast.jitter_ms = 0.0;
  fast.bandwidth_mbps = 0.0;
  LinkParams slow = fast;
  slow.one_way_ms = 50.0;
  ASSERT_TRUE(wan.AddLink("a", "c", fast).ok());   // direct
  ASSERT_TRUE((wan.AddLink("a", "b", slow)).ok());
  ASSERT_TRUE((wan.AddLink("b", "c", slow)).ok());
  ASSERT_TRUE(wan.SetLinkUp("a", "c", false).ok());  // force the detour
  bool delivered = false;
  EXPECT_TRUE(wan.Send(a, c, 0, [&] { delivered = true; }).ok());
  sim_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim_.Now().millis(), 100.0);
}

TEST_F(WanTest, NodeUnreachableBlocksAllTraffic) {
  Wan wan(sim_, 8);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  ASSERT_TRUE((wan.AddLink("a", "b", LinkParams{})).ok());
  ASSERT_TRUE(wan.SetNodeReachable("b", false).ok());
  EXPECT_FALSE(wan.NodeReachable("b"));
  EXPECT_FALSE(wan.Send(a, b, 0, [] {}).ok());
  ASSERT_TRUE(wan.SetNodeReachable("b", true).ok());
  EXPECT_TRUE(wan.Send(a, b, 0, [] {}).ok());
}

TEST_F(WanTest, LossDropsExpectedFraction) {
  Wan wan(sim_, 9);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  LinkParams p;
  p.loss_prob = 0.25;
  ASSERT_TRUE((wan.AddLink("a", "b", p)).ok());
  int delivered = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    (void)wan.Send(a, b, 0, [&] { ++delivered; });  // loss expected
  }
  sim_.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.75, 0.03);
  EXPECT_EQ(wan.messages_lost(), static_cast<uint64_t>(n - delivered));
}

TEST_F(WanTest, JitterProducesLatencySpread) {
  Wan wan(sim_, 10);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  LinkParams p;
  p.one_way_ms = 20.0;
  p.jitter_ms = 4.0;
  p.min_ms = 0.0;
  p.bandwidth_mbps = 0.0;
  ASSERT_TRUE((wan.AddLink("a", "b", p)).ok());
  SampleSet lat;
  for (int i = 0; i < 500; ++i) {
    const auto t0 = sim_.Now();
    ASSERT_TRUE(wan.Send(a, b, 0, [&lat, t0, this] {
      lat.Add((sim_.Now() - t0).millis());
    }).ok());
    sim_.Run();
  }
  EXPECT_NEAR(lat.mean(), 20.0, 0.8);
  EXPECT_NEAR(lat.stddev(), 4.0, 0.8);
}

TEST_F(WanTest, LatencyFloorEnforced) {
  Wan wan(sim_, 11);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  LinkParams p;
  p.one_way_ms = 1.0;
  p.jitter_ms = 10.0;  // would often go negative
  p.min_ms = 0.5;
  p.bandwidth_mbps = 0.0;
  ASSERT_TRUE((wan.AddLink("a", "b", p)).ok());
  for (int i = 0; i < 200; ++i) {
    const auto t0 = sim_.Now();
    ASSERT_TRUE(wan.Send(a, b, 0, [t0, this] {
      EXPECT_GE((sim_.Now() - t0).millis(), 0.5 - 1e-9);
    }).ok());
    sim_.Run();
  }
}

TEST_F(WanTest, AddLinkRequiresKnownNodes) {
  Wan wan(sim_, 12);
  wan.AddNode("a");
  EXPECT_FALSE(wan.AddLink("a", "ghost", LinkParams{}).ok());
}

TEST_F(WanTest, DuplicateAddNodeIsIdempotent) {
  Wan wan(sim_, 13);
  const NodeId a = wan.AddNode("a");
  EXPECT_EQ(wan.AddNode("a"), a);
  EXPECT_TRUE(wan.HasNode("a"));
  EXPECT_EQ(wan.Find("a"), a);
  EXPECT_EQ(wan.NodeName(a), "a");
  EXPECT_EQ(wan.Find("zz"), kNoNode);
}

TEST_F(WanTest, SetNodeReachableUnknownNode) {
  Wan wan(sim_, 17);
  wan.AddNode("a");
  const Status s = wan.SetNodeReachable("zz", false);
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_FALSE(wan.HasNode("zz"));  // no phantom entry
  EXPECT_FALSE(wan.NodeReachable("zz"));
}

TEST_F(WanTest, UnknownEndpointHasNoRoute) {
  Wan wan(sim_, 18);
  const NodeId a = wan.AddNode("a");
  EXPECT_FALSE(wan.Send(a, kNoNode, 0, [] { FAIL(); }).ok());
  EXPECT_EQ(wan.last_send_failure(), SendFailure::kNoRoute);
  EXPECT_FALSE(wan.MeanPathLatencyMs("a", "zz").ok());
  sim_.Run();
}

// --- link-down / link-up transition coverage -------------------------------

TEST_F(WanTest, InFlightMessageSurvivesLinkGoingDown) {
  // A message already on the wire is not clawed back when the link drops
  // behind it: the down state gates routing decisions, not deliveries.
  Wan wan(sim_, 14);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  LinkParams p;
  p.one_way_ms = 10.0;
  p.jitter_ms = 0.0;
  p.bandwidth_mbps = 0.0;
  ASSERT_TRUE(wan.AddLink("a", "b", p).ok());
  bool delivered = false;
  ASSERT_TRUE(wan.Send(a, b, 0, [&] { delivered = true; }).ok());
  sim_.Schedule(sim::SimTime::Millis(1.0),
                [&] { ASSERT_TRUE(wan.SetLinkUp("a", "b", false).ok()); });
  sim_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(WanTest, RepeatedDownUpCyclesTrackState) {
  Wan wan(sim_, 15);
  const NodeId a = wan.AddNode("a");
  const NodeId b = wan.AddNode("b");
  LinkParams p;
  p.jitter_ms = 0.0;
  ASSERT_TRUE(wan.AddLink("a", "b", p).ok());
  int delivered = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(wan.SetLinkUp("a", "b", false).ok());
    EXPECT_FALSE(wan.Send(a, b, 0, [&] { ++delivered; }).ok());
    ASSERT_TRUE(wan.SetLinkUp("a", "b", true).ok());
    EXPECT_TRUE(wan.Send(a, b, 0, [&] { ++delivered; }).ok());
  }
  sim_.Run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(wan.messages_lost(), 3u);
  EXPECT_EQ(wan.messages_sent(), 6u);
}

TEST_F(WanTest, LinkUpRestoresPreferredRoute) {
  // While the direct link is down, traffic detours; after SetLinkUp the
  // next Send takes the short path again (routing is per-message).
  Wan wan(sim_, 16);
  const NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  const NodeId c = wan.AddNode("c");
  LinkParams fast;
  fast.one_way_ms = 1.0;
  fast.jitter_ms = 0.0;
  fast.bandwidth_mbps = 0.0;
  LinkParams slow = fast;
  slow.one_way_ms = 40.0;
  ASSERT_TRUE(wan.AddLink("a", "c", fast).ok());
  ASSERT_TRUE(wan.AddLink("a", "b", slow).ok());
  ASSERT_TRUE(wan.AddLink("b", "c", slow).ok());

  ASSERT_TRUE(wan.SetLinkUp("a", "c", false).ok());
  ASSERT_TRUE(wan.Send(a, c, 0, [] {}).ok());
  sim_.Run();
  EXPECT_DOUBLE_EQ(sim_.Now().millis(), 80.0);  // detour a->b->c

  ASSERT_TRUE(wan.SetLinkUp("a", "c", true).ok());
  const auto t0 = sim_.Now();
  ASSERT_TRUE(wan.Send(a, c, 0, [] {}).ok());
  sim_.Run();
  EXPECT_DOUBLE_EQ((sim_.Now() - t0).millis(), 1.0);  // direct again
}

// --- route-table invalidation ---------------------------------------------
// Routes are cached per (from, to) pair. Each test warms the table with
// traffic first, then checks that a topology change re-routes the very next
// Send. Latencies are exact (no jitter), so the elapsed time names the path.

LinkParams Exact(double one_way_ms) {
  LinkParams p;
  p.one_way_ms = one_way_ms;
  p.jitter_ms = 0.0;
  p.bandwidth_mbps = 0.0;
  return p;
}

/// Virtual milliseconds one Send from `from` to `to` takes to deliver.
double Deliver(sim::Simulation& sim, Wan& wan, NodeId from, NodeId to) {
  const auto t0 = sim.Now();
  bool delivered = false;
  EXPECT_TRUE(wan.Send(from, to, 0, [&] { delivered = true; }).ok());
  sim.Run();
  EXPECT_TRUE(delivered);
  return (sim.Now() - t0).millis();
}

TEST_F(WanTest, AddLinkShortcutReroutesNextSend) {
  Wan wan(sim_, 19);
  const NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  const NodeId c = wan.AddNode("c");
  ASSERT_TRUE(wan.AddLink("a", "b", Exact(20.0)).ok());
  ASSERT_TRUE(wan.AddLink("b", "c", Exact(20.0)).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 40.0);
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, c, a), 40.0);

  ASSERT_TRUE(wan.AddLink("c", "a", Exact(3.0)).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 3.0);
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, c, a), 3.0);
}

TEST_F(WanTest, LinkDownThenUpReroutesNextSend) {
  Wan wan(sim_, 20);
  const NodeId a = wan.AddNode("a");
  wan.AddNode("b");
  const NodeId c = wan.AddNode("c");
  ASSERT_TRUE(wan.AddLink("a", "c", Exact(1.0)).ok());
  ASSERT_TRUE(wan.AddLink("a", "b", Exact(30.0)).ok());
  ASSERT_TRUE(wan.AddLink("b", "c", Exact(30.0)).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 1.0);

  ASSERT_TRUE(wan.SetLinkUp("a", "c", false).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 60.0);
  ASSERT_TRUE(wan.SetLinkUp("c", "a", true).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 1.0);
}

TEST_F(WanTest, NodeReachabilityReroutesNextSend) {
  // a-b-c is the short path; a-d-e-c the detour around b.
  Wan wan(sim_, 21);
  const NodeId a = wan.AddNode("a");
  for (const char* n : {"b", "d", "e"}) wan.AddNode(n);
  const NodeId c = wan.AddNode("c");
  ASSERT_TRUE(wan.AddLink("a", "b", Exact(5.0)).ok());
  ASSERT_TRUE(wan.AddLink("b", "c", Exact(5.0)).ok());
  ASSERT_TRUE(wan.AddLink("a", "d", Exact(7.0)).ok());
  ASSERT_TRUE(wan.AddLink("d", "e", Exact(7.0)).ok());
  ASSERT_TRUE(wan.AddLink("e", "c", Exact(7.0)).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 10.0);

  ASSERT_TRUE(wan.SetNodeReachable("b", false).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 21.0);
  ASSERT_TRUE(wan.SetNodeReachable("b", true).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 10.0);

  ASSERT_TRUE(wan.SetNodeReachable("c", false).ok());
  EXPECT_FALSE(wan.Send(a, c, 0, [] { FAIL(); }).ok());
  EXPECT_EQ(wan.last_send_failure(), SendFailure::kNoRoute);
  ASSERT_TRUE(wan.SetNodeReachable("c", true).ok());
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, c), 10.0);
}

TEST_F(WanTest, BothDirectionsShareOneBreakerAndFaultTarget) {
  // Added in reverse name order, so ids and the canonical (name-ordered)
  // target disagree.
  Wan wan(sim_, 22);
  const NodeId z = wan.AddNode("zeta");
  const NodeId a = wan.AddNode("alpha");
  ASSERT_TRUE(wan.AddLink("zeta", "alpha", Exact(1.0)).ok());
  resil::BreakerConfig cfg;
  cfg.failure_threshold = 2;
  wan.EnableCircuitBreakers(cfg);
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, z, a), 1.0);
  resil::CircuitBreaker* brk = wan.breaker("zeta", "alpha");
  ASSERT_NE(brk, nullptr);
  EXPECT_EQ(wan.breaker("alpha", "zeta"), brk);
  EXPECT_DOUBLE_EQ(Deliver(sim_, wan, a, z), 1.0);
  EXPECT_EQ(wan.breaker("alpha", "zeta"), brk);

  // One failure each way opens the shared breaker.
  ASSERT_TRUE(wan.SetLinkUp("alpha", "zeta", false).ok());
  EXPECT_FALSE(wan.Send(z, a, 0, [] { FAIL(); }).ok());
  EXPECT_FALSE(wan.Send(a, z, 0, [] { FAIL(); }).ok());
  EXPECT_EQ(brk->StateAt(sim_.Now().micros()), resil::BreakerState::kOpen);
  const Status fast = wan.Send(z, a, 0, [] { FAIL(); });
  EXPECT_EQ(fast.message(), "circuit open zeta->alpha");
  EXPECT_EQ(wan.messages_fast_failed(), 1u);

  // A loss fault on the canonical target hits both directions.
  Wan faulty(sim_, 23);
  const NodeId fz = faulty.AddNode("zeta");
  const NodeId fa = faulty.AddNode("alpha");
  ASSERT_TRUE(faulty.AddLink("zeta", "alpha", Exact(1.0)).ok());
  fault::FaultPlan plan(7);
  plan.MessageLoss("alpha|zeta", 0.0, 1e6, 1.0);
  fault::FaultInjector inj(plan);
  faulty.set_fault_injector(&inj);
  const Status ab = faulty.Send(fa, fz, 0, [] { FAIL(); });
  const Status ba = faulty.Send(fz, fa, 0, [] { FAIL(); });
  EXPECT_EQ(ab.message(), "injected message loss alpha->zeta");
  EXPECT_EQ(ba.message(), "injected message loss zeta->alpha");
  sim_.Run();
}

}  // namespace
}  // namespace xg::cspot
