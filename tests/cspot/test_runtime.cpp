// Protocol and reliability tests for the CSPOT runtime: two-round-trip
// append latency, retry-until-ack, exactly-once dedup, the element-size
// cache optimization and its stale-cache failure mode, and delay tolerance
// across partitions and power loss.
#include "cspot/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/contract.hpp"
#include "common/stats.hpp"
#include "cspot/topology.hpp"
#include "fault/injector.hpp"

namespace xg::cspot {
namespace {

std::vector<uint8_t> Payload(size_t n = 64, uint8_t fill = 7) {
  return std::vector<uint8_t>(n, fill);
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : rt_(sim_, 99) {
    rt_.AddNode("client");
    rt_.AddNode("server");
    LinkParams p;
    p.one_way_ms = 10.0;
    p.jitter_ms = 0.0;
    p.min_ms = 0.0;
    p.bandwidth_mbps = 0.0;
    EXPECT_TRUE((rt_.wan().AddLink("client", "server", p)).ok());
    EXPECT_TRUE((rt_.CreateLog("server", LogConfig{"log", 128, 64})).ok());
  }

  Result<SeqNo> Append(const std::vector<uint8_t>& payload,
                       AppendOptions opts = AppendOptions{}) {
    Result<SeqNo> out = Status(ErrorCode::kInternal, "callback never ran");
    rt_.RemoteAppend("client", "server", "log", payload, opts,
                     [&out](Result<SeqNo> r, const fault::FaultOutcome&) {
                       out = std::move(r);
                     });
    sim_.Run();
    return out;
  }

  sim::Simulation sim_;
  Runtime rt_;
};

TEST_F(RuntimeTest, LocalAppendAssignsSeq) {
  auto r = rt_.LocalAppend("server", "log", Payload());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0);
  r = rt_.LocalAppend("server", "log", Payload());
  EXPECT_EQ(r.value(), 1);
}

TEST_F(RuntimeTest, LocalAppendUnknownNodeOrLog) {
  EXPECT_EQ(rt_.LocalAppend("ghost", "log", Payload()).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(rt_.LocalAppend("server", "ghost", Payload()).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(RuntimeTest, HandlerFiresOncePerAppend) {
  int fires = 0;
  ASSERT_TRUE(rt_.RegisterHandler("server", "log",
                                  [&](const std::string&, SeqNo,
                                      const std::vector<uint8_t>&) { ++fires; })
                  .ok());
  ASSERT_TRUE((rt_.LocalAppend("server", "log", Payload())).ok());
  ASSERT_TRUE((rt_.LocalAppend("server", "log", Payload())).ok());
  sim_.Run();
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(rt_.counters().handler_fires, 2u);
}

TEST_F(RuntimeTest, HandlerReceivesSeqAndPayload) {
  SeqNo got_seq = kNoSeq;
  std::vector<uint8_t> got;
  ASSERT_TRUE(rt_.RegisterHandler("server", "log",
                                  [&](const std::string& log, SeqNo seq,
                                      const std::vector<uint8_t>& p) {
                                    EXPECT_EQ(log, "log");
                                    got_seq = seq;
                                    got = p;
                                  })
                  .ok());
  ASSERT_TRUE((rt_.LocalAppend("server", "log", Payload(16, 3))).ok());
  sim_.Run();
  EXPECT_EQ(got_seq, 0);
  EXPECT_EQ(got, Payload(16, 3));
}

TEST_F(RuntimeTest, RemoteAppendTakesTwoRoundTrips) {
  auto r = Append(Payload());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0);
  // 2 RTT x 20 ms + storage 0.2 ms.
  EXPECT_NEAR(sim_.Now().millis(), 40.2, 0.5);
  EXPECT_EQ(rt_.counters().size_requests, 1u);
  EXPECT_EQ(rt_.counters().puts, 1u);
}

TEST_F(RuntimeTest, SizeCacheHalvesLatency) {
  AppendOptions opts;
  opts.use_size_cache = true;
  auto r1 = Append(Payload(), opts);  // cold: 2 RTT
  ASSERT_TRUE(r1.ok());
  const double first = sim_.Now().millis();
  auto r2 = Append(Payload(), opts);  // warm: 1 RTT
  ASSERT_TRUE(r2.ok());
  const double second = sim_.Now().millis() - first;
  EXPECT_NEAR(first, 40.2, 0.5);
  EXPECT_NEAR(second, 20.2, 0.5);
  EXPECT_EQ(rt_.counters().size_cache_hits, 1u);
}

TEST_F(RuntimeTest, StaleSizeCacheFailsAndRecovers) {
  AppendOptions opts;
  opts.use_size_cache = true;
  ASSERT_TRUE(Append(Payload(), opts).ok());  // warms the cache (128 B)

  // The server recreates the log with a different element size — the
  // failure mode the paper describes for the caching optimization.
  Node* server = rt_.GetNode("server");
  ASSERT_TRUE(server->DeleteLog("log").ok());
  ASSERT_TRUE(server->CreateLog(LogConfig{"log", 256, 64}).ok());

  auto r = Append(Payload(), opts);
  // The runtime detects the mismatch, invalidates, refreshes, and the
  // retry succeeds against the new geometry.
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0);  // new log starts over
  EXPECT_GE(rt_.counters().size_cache_invalidations, 1u);
}

TEST_F(RuntimeTest, OversizePayloadFails) {
  auto r = Append(Payload(4096));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(RuntimeTest, AppendToMissingLogFails) {
  Result<SeqNo> out = Status(ErrorCode::kInternal, "pending");
  rt_.RemoteAppend("client", "server", "ghost", Payload(), AppendOptions{},
                   [&out](Result<SeqNo> r, const fault::FaultOutcome&) {
                     out = std::move(r);
                   });
  sim_.Run();
  EXPECT_EQ(out.status().code(), ErrorCode::kNotFound);
}

TEST_F(RuntimeTest, RetriesThroughMessageLoss) {
  // 30% loss per crossing: individual attempts fail but retries converge.
  ASSERT_TRUE((rt_.wan().SetLinkUp("client", "server", true)).ok());
  Runtime lossy_rt(sim_, 7);
  lossy_rt.AddNode("c");
  lossy_rt.AddNode("s");
  LinkParams p;
  p.one_way_ms = 5.0;
  p.jitter_ms = 0.0;
  p.loss_prob = 0.3;
  ASSERT_TRUE((lossy_rt.wan().AddLink("c", "s", p)).ok());
  ASSERT_TRUE((lossy_rt.CreateLog("s", LogConfig{"log", 128, 64})).ok());

  AppendOptions opts;
  opts.retry.max_attempts = 50;
  opts.retry.attempt_timeout_ms = 50.0;
  int ok_count = 0;
  for (int i = 0; i < 20; ++i) {
    Result<SeqNo> out = Status(ErrorCode::kInternal, "pending");
    lossy_rt.RemoteAppend("c", "s", "log", Payload(), opts,
                          [&out](Result<SeqNo> r, const fault::FaultOutcome&) {
                            out = std::move(r);
                          });
    sim_.Run();
    ok_count += out.ok();
  }
  EXPECT_EQ(ok_count, 20);
  EXPECT_GT(lossy_rt.counters().timeouts, 0u);
}

TEST_F(RuntimeTest, ExactlyOnceUnderAckLoss) {
  // Force heavy loss so some acks vanish after the server appended; the
  // dedup table must keep the log free of duplicates.
  Runtime lossy_rt(sim_, 21);
  lossy_rt.AddNode("c");
  lossy_rt.AddNode("s");
  LinkParams p;
  p.one_way_ms = 5.0;
  p.jitter_ms = 0.0;
  p.loss_prob = 0.35;
  ASSERT_TRUE((lossy_rt.wan().AddLink("c", "s", p)).ok());
  ASSERT_TRUE((lossy_rt.CreateLog("s", LogConfig{"log", 128, 1024})).ok());

  AppendOptions opts;
  opts.retry.max_attempts = 80;
  opts.retry.attempt_timeout_ms = 40.0;
  const int n = 30;
  int acked = 0;
  for (int i = 0; i < n; ++i) {
    lossy_rt.RemoteAppend("c", "s", "log", Payload(8, static_cast<uint8_t>(i)),
                          opts, [&acked](Result<SeqNo> r, const fault::FaultOutcome&) {
                            acked += r.ok();
                          });
    sim_.Run();
  }
  EXPECT_EQ(acked, n);
  // The log must contain each logical append exactly once.
  LogStorage* log = lossy_rt.GetNode("s")->GetLog("log");
  EXPECT_EQ(log->Size(), static_cast<size_t>(n));
  EXPECT_GT(lossy_rt.counters().dedup_hits, 0u);
}

TEST_F(RuntimeTest, ExhaustedRetriesReportTimeout) {
  ASSERT_TRUE((rt_.wan().SetLinkUp("client", "server", false)).ok());
  AppendOptions opts;
  opts.retry.max_attempts = 3;
  opts.retry.attempt_timeout_ms = 20.0;
  auto r = Append(Payload(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(rt_.counters().attempts, 3u);
}

TEST_F(RuntimeTest, DelayToleranceAcrossPartition) {
  // Appends fail during the partition and succeed after it heals —
  // "programs simply pause until connectivity is restored".
  ASSERT_TRUE((rt_.wan().SetLinkUp("client", "server", false)).ok());
  sim_.Schedule(sim::SimTime::Seconds(30),
                [&] { EXPECT_TRUE(rt_.wan().SetLinkUp("client", "server", true).ok()); });
  AppendOptions opts;
  opts.retry.max_attempts = 1000;
  opts.retry.attempt_timeout_ms = 500.0;
  Result<SeqNo> out = Status(ErrorCode::kInternal, "pending");
  rt_.RemoteAppend("client", "server", "log", Payload(), opts,
                   [&out](Result<SeqNo> r, const fault::FaultOutcome&) {
                     out = std::move(r);
                   });
  sim_.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_GT(sim_.Now().seconds(), 30.0);
}

TEST_F(RuntimeTest, PowerLossRecovery) {
  // The host loses power mid-run; the append stream resumes when it
  // returns, and no appends are double-applied.
  Node* server = rt_.GetNode("server");
  sim_.Schedule(sim::SimTime::Millis(5), [server] { server->set_up(false); });
  sim_.Schedule(sim::SimTime::Seconds(20), [server] { server->set_up(true); });
  AppendOptions opts;
  opts.retry.max_attempts = 1000;
  opts.retry.attempt_timeout_ms = 300.0;
  Result<SeqNo> out = Status(ErrorCode::kInternal, "pending");
  rt_.RemoteAppend("client", "server", "log", Payload(), opts,
                   [&out](Result<SeqNo> r, const fault::FaultOutcome&) {
                     out = std::move(r);
                   });
  sim_.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(server->GetLog("log")->Size(), 1u);
}

TEST_F(RuntimeTest, NodeUnreachableWindowPausesAppends) {
  // A kNodeUnreachable window on the host, driven through the runtime's
  // fault actuator: appends issued during it retry and complete after it
  // closes, with dense sequence numbers and each token delivered once.
  fault::FaultPlan plan(5);
  plan.NodeUnreachable("server", 1.0, 5.0);
  fault::FaultInjector inj(plan);
  rt_.AttachFaultInjector(inj);
  inj.Arm(sim_);

  std::vector<uint8_t> delivered;
  ASSERT_TRUE(rt_.RegisterHandler("server", "log",
                                  [&delivered](const std::string&, SeqNo,
                                               const std::vector<uint8_t>& p) {
                                    delivered.push_back(p[0]);
                                  })
                  .ok());
  struct Done {
    Result<SeqNo> seq = Status(ErrorCode::kInternal, "pending");
    int attempts = 0;
    double at_s = 0.0;
  };
  constexpr int kAppends = 20;
  std::vector<Done> done(kAppends);
  AppendOptions opts;
  opts.retry.max_attempts = 100;
  opts.retry.attempt_timeout_ms = 300.0;
  for (int i = 0; i < kAppends; ++i) {
    sim_.ScheduleAt(sim::SimTime::Seconds(0.5 * i), [&, i] {
      rt_.RemoteAppend("client", "server", "log",
                       Payload(8, static_cast<uint8_t>(i)), opts,
                       [&, i](Result<SeqNo> r, const fault::FaultOutcome& o) {
                         done[i] = {std::move(r), o.attempts,
                                    sim_.Now().seconds()};
                       });
    });
  }
  sim_.Run();

  std::set<SeqNo> seqs;
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(done[i].seq.ok()) << i;
    seqs.insert(done[i].seq.value());
    const double issued_s = 0.5 * i;
    if (issued_s >= 1.0 && issued_s < 6.0) {
      EXPECT_GT(done[i].attempts, 1) << i;
      EXPECT_GE(done[i].at_s, 6.0) << i;
    }
  }
  EXPECT_EQ(seqs.size(), static_cast<size_t>(kAppends));
  EXPECT_EQ(*seqs.begin(), 0);
  EXPECT_EQ(*seqs.rbegin(), kAppends - 1);
  EXPECT_EQ(rt_.GetNode("server")->GetLog("log")->Size(),
            static_cast<size_t>(kAppends));
  std::vector<uint8_t> sorted = delivered;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), static_cast<size_t>(kAppends));
  for (int i = 0; i < kAppends; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_TRUE(rt_.wan().NodeReachable("server"));
}

TEST_F(RuntimeTest, NodeUnreachableUnknownTargetIsInvariantViolation) {
  contract::ScopedMode mode(contract::Mode::kReturnStatus);
  contract::ResetViolationStats();
  fault::FaultPlan plan(6);
  plan.NodeUnreachable("ghost", 0.5, 1.0);
  fault::FaultInjector inj(plan);
  rt_.AttachFaultInjector(inj);
  inj.Arm(sim_);
  sim_.Run();
  EXPECT_EQ(contract::ViolationCount(), 2u);  // window begin and end
  EXPECT_FALSE(rt_.wan().HasNode("ghost"));
  contract::ResetViolationStats();
}

TEST_F(RuntimeTest, RemoteAppendUnknownNodeFailsNotFound) {
  Result<SeqNo> out = Status(ErrorCode::kInternal, "pending");
  rt_.RemoteAppend("client", "ghost", "log", Payload(), AppendOptions{},
                   [&out](Result<SeqNo> r, const fault::FaultOutcome&) {
                     out = std::move(r);
                   });
  EXPECT_EQ(out.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(out.status().message(), "no node ghost");
  EXPECT_EQ(rt_.counters().attempts, 0u);
}

TEST_F(RuntimeTest, RemoteReads) {
  ASSERT_TRUE((rt_.LocalAppend("server", "log", Payload(8, 42))).ok());
  const NodeId client = rt_.wan().Find("client");
  const NodeId server = rt_.wan().Find("server");
  const LogId log = rt_.ResolveLog(server, "log");
  Result<SeqNo> latest = Status(ErrorCode::kInternal, "pending");
  rt_.RemoteLatestSeq(client, server, log,
                      [&latest](Result<SeqNo> r) { latest = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value(), 0);

  Result<std::vector<uint8_t>> got = Status(ErrorCode::kInternal, "pending");
  rt_.RemoteGet(client, server, log, 0,
                [&got](Result<std::vector<uint8_t>> r) { got = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), Payload(8, 42));
}

TEST_F(RuntimeTest, RemoteReadMissingLog) {
  Result<SeqNo> latest = Status(ErrorCode::kInternal, "pending");
  const NodeId server = rt_.wan().Find("server");
  rt_.RemoteLatestSeq(rt_.wan().Find("client"), server,
                      rt_.ResolveLog(server, "ghost"),
                      [&latest](Result<SeqNo> r) { latest = std::move(r); });
  sim_.Run();
  EXPECT_EQ(latest.status().code(), ErrorCode::kNotFound);
}

TEST(Topology, Table1LatencyCalibration) {
  // The three Table 1 paths: 101 +/- 17 ms (5G), 17 +/- 0.8 ms (wired),
  // 92 +/- 1 ms (UCSB->ND), measured as 29 appends after a discarded one.
  struct Row {
    const char* client;
    const char* host;
    double mean_ms, tol_mean, sd_ms, tol_sd;
  } rows[] = {
      {"unl", "ucsb", 101.0, 12.0, 17.0, 8.0},
      {"unl-wired", "ucsb", 17.0, 1.0, 0.8, 0.6},
      {"ucsb", "nd", 92.0, 1.5, 1.0, 0.7},
  };
  for (const Row& row : rows) {
    sim::Simulation sim;
    Runtime rt(sim, 1234);
    BuildXgTopology(rt);
    ASSERT_TRUE((rt.CreateLog(row.host, LogConfig{"t", 1024, 128})).ok());
    SampleSet lat;
    std::vector<uint8_t> payload(1024, 1);
    int i = 0;
    std::function<void()> next = [&]() {
      if (i >= 30) return;
      ++i;
      const auto t0 = sim.Now();
      rt.RemoteAppend(row.client, row.host, "t", payload, AppendOptions{},
                      [&, t0](Result<SeqNo> r, const fault::FaultOutcome&) {
                        ASSERT_TRUE(r.ok());
                        if (i > 1) lat.Add((sim.Now() - t0).millis());
                        next();
                      });
    };
    next();
    sim.Run();
    EXPECT_EQ(lat.count(), 29u);
    EXPECT_NEAR(lat.mean(), row.mean_ms, row.tol_mean)
        << row.client << "->" << row.host;
    EXPECT_NEAR(lat.stddev(), row.sd_ms, row.tol_sd)
        << row.client << "->" << row.host;
  }
}

TEST(Topology, FiveGPathSlowerThanWired) {
  sim::Simulation sim;
  Runtime rt(sim, 5);
  BuildXgTopology(rt);
  auto w5g = rt.wan().MeanPathLatencyMs("unl", "ucsb");
  auto wired = rt.wan().MeanPathLatencyMs("unl-wired", "ucsb");
  ASSERT_TRUE(w5g.ok());
  ASSERT_TRUE(wired.ok());
  EXPECT_GT(w5g.value(), 4.0 * wired.value());
}

TEST(RuntimeLifetime, HostStepsOutliveTheRuntime) {
  // A runtime destroyed while the simulation still holds a request and a
  // duplicate on their way to the host: the pending events keep its
  // append ops alive until the simulation lets them go.
  sim::Simulation sim;
  fault::FaultPlan plan(4);
  plan.Duplicate(fault::FaultPlan::LinkTarget("c", "s"), 0.0, 10.0, 1.0,
                 /*extra_delay_ms=*/50.0);
  fault::FaultInjector injector(plan);
  {
    Runtime rt(sim, 4);
    rt.AddNode("c");
    rt.AddNode("s");
    ASSERT_TRUE(rt.wan().AddLink("c", "s", LinkParams{}).ok());
    ASSERT_TRUE(rt.CreateLog("s", LogConfig{"log", 64, 8}).ok());
    rt.AttachFaultInjector(injector);
    injector.Arm(sim);
    bool acked = false;
    rt.RemoteAppend("c", "s", "log", Payload(8), AppendOptions{},
                    [&acked](Result<SeqNo> r, const fault::FaultOutcome&) {
                      acked = r.ok();
                    });
    // The ack arrives first; the duplicates are still in flight.
    while (!acked && sim.Step()) {
    }
    ASSERT_TRUE(acked);
    EXPECT_GT(sim.pending(), 0u);
  }
  // The simulation, destroyed here, releases the ops (ASan checks it).
}

}  // namespace
}  // namespace xg::cspot

// -- durable storage integration ---------------------------------------------

namespace xg::cspot {
namespace {

TEST(DurableRuntime, FileBackedLogSurvivesProcessRestart) {
  // The paper's power-loss story end-to-end: a node hosts its telemetry
  // log on disk; after a simulated crash (runtime torn down entirely) a
  // fresh runtime adopts the same file and appends continue from the
  // recovered sequence number.
  const std::string path = ::testing::TempDir() + "xg_durable_node.log";
  std::remove(path.c_str());
  const LogConfig cfg{"telemetry", 64, 128};

  {
    sim::Simulation sim;
    Runtime rt(sim, 71);
    Node& node = rt.AddNode("edge");
    auto file_log = FileLog::Open(path, cfg);
    ASSERT_TRUE(file_log.ok());
    ASSERT_TRUE(node.AdoptLog(std::move(file_log.value())).ok());
    for (int i = 0; i < 7; ++i) {
      auto r = rt.LocalAppend("edge", "telemetry",
                              std::vector<uint8_t>{uint8_t(i)});
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), i);
    }
  }  // crash: runtime and node destroyed

  {
    sim::Simulation sim;
    Runtime rt(sim, 72);
    Node& node = rt.AddNode("edge");
    auto file_log = FileLog::Open(path, cfg);
    ASSERT_TRUE(file_log.ok());
    ASSERT_TRUE(node.AdoptLog(std::move(file_log.value())).ok());
    // History intact...
    EXPECT_EQ(node.GetLog("telemetry")->Size(), 7u);
    auto back = node.GetLog("telemetry")->Get(3);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), std::vector<uint8_t>{3});
    // ...and appends resume at the recovered sequence number.
    auto r = rt.LocalAppend("edge", "telemetry", std::vector<uint8_t>{99});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 7);
  }
  std::remove(path.c_str());
}

TEST(DurableRuntime, HandlersFireOnFileBackedAppends) {
  const std::string path = ::testing::TempDir() + "xg_durable_handler.log";
  std::remove(path.c_str());
  sim::Simulation sim;
  Runtime rt(sim, 73);
  Node& node = rt.AddNode("edge");
  auto file_log = FileLog::Open(path, LogConfig{"log", 32, 16});
  ASSERT_TRUE(file_log.ok());
  ASSERT_TRUE(node.AdoptLog(std::move(file_log.value())).ok());
  int fires = 0;
  ASSERT_TRUE(rt.RegisterHandler("edge", "log",
                                 [&](const std::string&, SeqNo,
                                     const std::vector<uint8_t>&) { ++fires; })
                  .ok());
  ASSERT_TRUE((rt.LocalAppend("edge", "log", {1})).ok());
  ASSERT_TRUE((rt.LocalAppend("edge", "log", {2})).ok());
  sim.Run();
  EXPECT_EQ(fires, 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xg::cspot
