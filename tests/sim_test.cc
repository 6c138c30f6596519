// Tests for the discrete-event engine and the simulated fabric (virtual
// time, timer semantics, latency model, failure injection, counters), and
// for the cluster plan both hosts build from.
#include <gtest/gtest.h>

#include <set>

#include "sim/cluster_plan.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"

namespace scalla::sim {
namespace {

TEST(EventEngineTest, PostRunsInOrderWithoutAdvancingTime) {
  EventEngine engine;
  std::vector<int> order;
  engine.Post([&order] { order.push_back(1); });
  engine.Post([&order] { order.push_back(2); });
  const TimePoint t0 = engine.Now();
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.Now(), t0);
}

TEST(EventEngineTest, RunAfterAdvancesVirtualTime) {
  EventEngine engine;
  TimePoint fired{};
  engine.RunAfter(std::chrono::seconds(5), [&] { fired = engine.Now(); });
  engine.RunUntilIdle();
  EXPECT_EQ(fired.time_since_epoch(), Duration(std::chrono::seconds(5)));
}

TEST(EventEngineTest, EventsInterleaveByDueTime) {
  EventEngine engine;
  std::vector<int> order;
  engine.RunAfter(std::chrono::seconds(3), [&] { order.push_back(3); });
  engine.RunAfter(std::chrono::seconds(1), [&] { order.push_back(1); });
  engine.RunAfter(std::chrono::seconds(2), [&] { order.push_back(2); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventEngineTest, PeriodicTimerFiresEachPeriod) {
  EventEngine engine;
  int fires = 0;
  engine.RunEvery(std::chrono::seconds(10), [&fires] { ++fires; });
  engine.RunFor(std::chrono::seconds(35));
  EXPECT_EQ(fires, 3);
  engine.RunFor(std::chrono::seconds(10));
  EXPECT_EQ(fires, 4);
}

TEST(EventEngineTest, CancelStopsTimer) {
  EventEngine engine;
  int fires = 0;
  const auto id = engine.RunEvery(std::chrono::seconds(1), [&fires] { ++fires; });
  engine.RunFor(std::chrono::seconds(3));
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(engine.Cancel(id));
  engine.RunFor(std::chrono::seconds(5));
  EXPECT_EQ(fires, 3);
}

TEST(EventEngineTest, CancelOneShotBeforeFire) {
  EventEngine engine;
  bool fired = false;
  const auto id = engine.RunAfter(std::chrono::seconds(1), [&fired] { fired = true; });
  engine.Cancel(id);
  engine.RunFor(std::chrono::seconds(2));
  EXPECT_FALSE(fired);
}

TEST(EventEngineTest, TimerCanCancelItself) {
  EventEngine engine;
  int fires = 0;
  sched::TimerId id = sched::kInvalidTimer;
  id = engine.RunEvery(std::chrono::seconds(1), [&] {
    if (++fires == 2) engine.Cancel(id);
  });
  engine.RunFor(std::chrono::seconds(10));
  EXPECT_EQ(fires, 2);
}

TEST(EventEngineTest, RunUntilIdleDoesNotSpinOnPeriodics) {
  EventEngine engine;
  int fires = 0;
  engine.RunEvery(std::chrono::seconds(1), [&fires] { ++fires; });
  engine.RunUntilIdle();  // must return immediately: no one-shot work
  EXPECT_EQ(fires, 0);
}

TEST(EventEngineTest, RunUntilPredicate) {
  EventEngine engine;
  int counter = 0;
  engine.RunEvery(std::chrono::seconds(1), [&counter] { ++counter; });
  const bool ok = engine.RunUntilPredicate([&counter] { return counter >= 5; },
                                           engine.Now() + std::chrono::seconds(100));
  EXPECT_TRUE(ok);
  EXPECT_EQ(counter, 5);

  const bool timedOut = engine.RunUntilPredicate([&counter] { return counter >= 1000; },
                                                 engine.Now() + std::chrono::seconds(10));
  EXPECT_FALSE(timedOut);
}

TEST(EventEngineTest, TasksScheduledInsideTasksRun) {
  EventEngine engine;
  bool inner = false;
  engine.Post([&] {
    engine.RunAfter(std::chrono::milliseconds(5), [&inner] { inner = true; });
  });
  engine.RunUntilIdle();
  EXPECT_TRUE(inner);
}

// ------------------------------------------------------------ SimFabric

struct Recorder : net::MessageSink {
  std::vector<std::pair<net::NodeAddr, proto::Message>> received;
  std::vector<net::NodeAddr> peersDown;
  void OnMessage(net::NodeAddr from, proto::Message m) override {
    received.emplace_back(from, std::move(m));
  }
  void OnPeerDown(net::NodeAddr peer) override { peersDown.push_back(peer); }
};

TEST(SimFabricTest, DeliversWithModeledLatency) {
  EventEngine engine;
  LatencyModel model;
  model.linkLatency = std::chrono::microseconds(25);
  model.serviceTime = std::chrono::microseconds(5);
  SimFabric fabric(engine, model);
  Recorder a, b;
  fabric.Register(1, &a);
  fabric.Register(2, &b);

  fabric.Send(1, 2, proto::CmsGone{"/f"});
  engine.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, 1u);
  EXPECT_EQ(engine.Now().time_since_epoch(), Duration(std::chrono::microseconds(30)));
}

TEST(SimFabricTest, DownedEndpointDropsAndNotifiesSender) {
  EventEngine engine;
  SimFabric fabric(engine, LatencyModel{});
  Recorder a, b;
  fabric.Register(1, &a);
  fabric.Register(2, &b);
  fabric.SetDown(2, true);

  fabric.Send(1, 2, proto::CmsGone{"/f"});
  engine.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
  ASSERT_EQ(a.peersDown.size(), 1u);
  EXPECT_EQ(a.peersDown[0], 2u);
  EXPECT_EQ(fabric.GetCounters().messagesDropped, 1u);

  fabric.SetDown(2, false);
  fabric.Send(1, 2, proto::CmsGone{"/f"});
  engine.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(SimFabricTest, LinkCutIsBidirectionalAndReversible) {
  EventEngine engine;
  SimFabric fabric(engine, LatencyModel{});
  Recorder a, b;
  fabric.Register(1, &a);
  fabric.Register(2, &b);
  fabric.SetLinkCut(1, 2, true);
  fabric.Send(1, 2, proto::CmsGone{"/f"});
  fabric.Send(2, 1, proto::CmsGone{"/f"});
  engine.RunUntilIdle();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  fabric.SetLinkCut(1, 2, false);
  fabric.Send(1, 2, proto::CmsGone{"/f"});
  engine.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(SimFabricTest, InFlightMessageLostWhenLinkCutMidFlight) {
  EventEngine engine;
  LatencyModel model;
  model.linkLatency = std::chrono::milliseconds(10);
  SimFabric fabric(engine, model);
  Recorder a, b;
  fabric.Register(1, &a);
  fabric.Register(2, &b);
  fabric.Send(1, 2, proto::CmsGone{"/f"});
  fabric.SetLinkCut(1, 2, true);  // cut before delivery event fires
  engine.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
}

TEST(SimFabricTest, PerTypeCountersTrackDeliveries) {
  EventEngine engine;
  SimFabric fabric(engine, LatencyModel{});
  Recorder a, b;
  fabric.Register(1, &a);
  fabric.Register(2, &b);
  fabric.Send(1, 2, proto::CmsQuery{"/f", 1, 0, false});
  fabric.Send(1, 2, proto::CmsQuery{"/g", 2, 0, false});
  fabric.Send(1, 2, proto::CmsHave{});
  engine.RunUntilIdle();

  constexpr std::size_t kQueryIdx = 2;  // CmsQuery index in the variant
  constexpr std::size_t kHaveIdx = 3;
  EXPECT_EQ(fabric.DeliveredOfType(kQueryIdx), 2u);
  EXPECT_EQ(fabric.DeliveredOfType(kHaveIdx), 1u);
  fabric.ResetCounters();
  EXPECT_EQ(fabric.DeliveredOfType(kQueryIdx), 0u);
}

TEST(SimFabricTest, SerialServiceQueuesAtReceiver) {
  EventEngine engine;
  LatencyModel model;
  model.linkLatency = std::chrono::microseconds(10);
  model.serviceTime = std::chrono::microseconds(5);
  model.serialService = true;
  SimFabric fabric(engine, model);
  Recorder a, b;
  fabric.Register(1, &a);
  fabric.Register(2, &b);

  // Three messages sent at once: arrivals at t=10us, service completes at
  // 15, 20, 25us — the single-threaded receiver model.
  std::vector<Duration> deliveredAt;
  struct Tap : net::MessageSink {
    EventEngine& engine;
    std::vector<Duration>& times;
    Tap(EventEngine& e, std::vector<Duration>& t) : engine(e), times(t) {}
    void OnMessage(net::NodeAddr, proto::Message) override {
      times.push_back(engine.Now().time_since_epoch());
    }
  } tap(engine, deliveredAt);
  fabric.Register(3, &tap);
  for (int i = 0; i < 3; ++i) fabric.Send(1, 3, proto::CmsGone{"/f"});
  engine.RunUntilIdle();
  ASSERT_EQ(deliveredAt.size(), 3u);
  EXPECT_EQ(deliveredAt[0], Duration(std::chrono::microseconds(15)));
  EXPECT_EQ(deliveredAt[1], Duration(std::chrono::microseconds(20)));
  EXPECT_EQ(deliveredAt[2], Duration(std::chrono::microseconds(25)));
}

TEST(SimFabricTest, InjectedDelayHoldsBackOnlyItsOwnPair) {
  EventEngine engine;
  SimFabric fabric(engine, LatencyModel{});  // 25 us links, 5 us serial service
  struct Tap : net::MessageSink {
    EventEngine& engine;
    std::vector<std::pair<std::string, Duration>> got;
    explicit Tap(EventEngine& e) : engine(e) {}
    void OnMessage(net::NodeAddr, proto::Message m) override {
      got.emplace_back(std::get<proto::CmsGone>(m).path, engine.Now().time_since_epoch());
    }
  } tap(engine);
  Recorder a, b;
  fabric.Register(1, &a);
  fabric.Register(2, &b);
  fabric.Register(3, &tap);

  fabric.SetDelay(1, 3, std::chrono::milliseconds(5));
  fabric.Send(1, 3, proto::CmsGone{"held"});
  fabric.SetDelay(1, 3, Duration::zero());
  fabric.Send(1, 3, proto::CmsGone{"behind"});
  fabric.Send(2, 3, proto::CmsGone{"other"});
  engine.RunUntilIdle();

  // Another sender's message is served as soon as it arrives; the delayed
  // pair keeps its send order behind the delay.
  using std::chrono::microseconds;
  ASSERT_EQ(tap.got.size(), 3u);
  EXPECT_EQ(tap.got[0], std::make_pair(std::string("other"), Duration(microseconds(30))));
  EXPECT_EQ(tap.got[1], std::make_pair(std::string("held"), Duration(microseconds(5030))));
  EXPECT_EQ(tap.got[2], std::make_pair(std::string("behind"), Duration(microseconds(5035))));
}

TEST(SimFabricTest, InfiniteCapacityWithoutSerialService) {
  EventEngine engine;
  LatencyModel model;
  model.linkLatency = std::chrono::microseconds(10);
  model.serviceTime = std::chrono::microseconds(5);
  model.serialService = false;
  SimFabric fabric(engine, model);
  Recorder a;
  fabric.Register(1, &a);
  std::vector<Duration> deliveredAt;
  struct Tap : net::MessageSink {
    EventEngine& engine;
    std::vector<Duration>& times;
    Tap(EventEngine& e, std::vector<Duration>& t) : engine(e), times(t) {}
    void OnMessage(net::NodeAddr, proto::Message) override {
      times.push_back(engine.Now().time_since_epoch());
    }
  } tap(engine, deliveredAt);
  fabric.Register(3, &tap);
  for (int i = 0; i < 3; ++i) fabric.Send(1, 3, proto::CmsGone{"/f"});
  engine.RunUntilIdle();
  ASSERT_EQ(deliveredAt.size(), 3u);
  for (const auto t : deliveredAt) {
    EXPECT_EQ(t, Duration(std::chrono::microseconds(15)));  // all in parallel
  }
}

TEST(SimFabricTest, PerPairOrderingPreserved) {
  EventEngine engine;
  SimFabric fabric(engine, LatencyModel{});
  Recorder a, b;
  fabric.Register(1, &a);
  fabric.Register(2, &b);
  for (int i = 0; i < 10; ++i) {
    fabric.Send(1, 2, proto::CmsGone{std::to_string(i)});
  }
  engine.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(std::get<proto::CmsGone>(b.received[i].second).path, std::to_string(i));
  }
}

// ------------------------------------------------------------ ClusterPlan

TEST(ClusterPlanTest, FederationPlansTheMetaOverEveryMemberCluster) {
  ClusterSpec spec;
  spec.clusters = 2;
  spec.servers = 3;
  spec.fanout = 2;
  spec.localities = {0, 4};
  spec.withProxy = true;
  const ClusterPlan plan = PlanCluster(spec);

  // The meta comes first: a manager with no parent that selects by load.
  ASSERT_FALSE(plan.nodes.empty());
  const xrd::NodeConfig& meta = plan.nodes.front();
  EXPECT_EQ(meta.name, "meta");
  EXPECT_EQ(meta.role, xrd::NodeRole::kManager);
  EXPECT_EQ(meta.parent, 0u);
  EXPECT_EQ(meta.selection, cms::SelectCriterion::kLoad);

  // Each member cluster's head logs into it under its own name and weight.
  std::vector<const xrd::NodeConfig*> heads;
  for (const xrd::NodeConfig& node : plan.nodes) {
    if (node.role == xrd::NodeRole::kManager && node.addr != meta.addr) heads.push_back(&node);
  }
  ASSERT_EQ(heads.size(), 2u);
  for (std::size_t c = 0; c < heads.size(); ++c) {
    EXPECT_EQ(heads[c]->parent, meta.addr) << c;
    EXPECT_EQ(heads[c]->clusterName, "cluster" + std::to_string(c));
    EXPECT_EQ(heads[c]->locality, spec.localities[c]);
    EXPECT_EQ(heads[c]->selection, spec.selection) << c;
  }

  // Every name in the tree is unique, and the meta adds one hop.
  std::set<std::string> names;
  for (const xrd::NodeConfig& node : plan.nodes) names.insert(node.name);
  EXPECT_EQ(names.size(), plan.nodes.size());
  ClusterSpec member = spec;
  member.clusters = 0;
  EXPECT_EQ(plan.depth, PlanCluster(member).depth + 1);

  // Clients and the proxy enter through the meta alone.
  EXPECT_EQ(plan.client.head, meta.addr);
  EXPECT_TRUE(plan.client.extraHeads.empty());
  ASSERT_TRUE(plan.proxy.has_value());
  EXPECT_EQ(plan.proxy->origin.head, meta.addr);
}

}  // namespace
}  // namespace scalla::sim
