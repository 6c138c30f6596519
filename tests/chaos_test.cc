// Chaos and capacity tests: the recoverability story (§VI) under
// sustained abuse — servers crash and return mid-workload, servers fill
// up and refuse creations — while clients keep making progress through
// the standard recovery rules, with no persistent state anywhere.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "client/sync_client.h"
#include "oss/mem_oss.h"
#include "sim/cluster.h"
#include "sim/tcp_cluster.h"
#include "tcp_test_support.h"
#include "sim/workload.h"

namespace scalla::sim {
namespace {

using cms::AccessMode;

TEST(ChaosTest, WorkloadSurvivesCrashRestartCycles) {
  ClusterSpec spec;
  spec.servers = 8;
  spec.cms.deadline = std::chrono::milliseconds(400);
  spec.cms.dropDelay = std::chrono::minutes(30);  // crashes stay "offline"
  SimCluster cluster(spec);
  cluster.Start();

  // Every file is on >= 2 servers, so one crash never removes the data.
  util::Rng rng(0xC4A05);
  const auto paths = PopulateFiles(cluster, 60, 2, rng);
  auto& client = cluster.NewClient();

  std::size_t ok = 0, failed = 0;
  for (int round = 0; round < 12; ++round) {
    // Crash one random server; restart the previous victim.
    const std::size_t victim = rng.NextBelow(cluster.ServerCount());
    cluster.CrashServer(victim);
    cluster.engine().RunUntilIdle();

    for (int i = 0; i < 20; ++i) {
      const auto& path = paths[rng.NextBelow(paths.size())];
      const auto open = cluster.OpenAndWait(client, path, AccessMode::kRead, false,
                                            std::chrono::minutes(2));
      if (open.err == proto::XrdErr::kNone) {
        ++ok;
        // Never redirected to the dead server.
        EXPECT_NE(open.file.node, cluster.server(victim).config().addr);
        std::optional<proto::XrdErr> closed;
        client.Close(open.file, [&closed](proto::XrdErr e) { closed = e; });
        cluster.engine().RunUntilIdle();
      } else {
        ++failed;
      }
    }
    cluster.RestartServer(victim);
    cluster.engine().RunFor(std::chrono::seconds(5));  // re-login settles
    EXPECT_EQ(cluster.head().membership().OnlineSet().count(), 8);
  }
  // With 2x replication and single-victim crashes, everything is servable.
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(ok, 12u * 20u);
}

TEST(ChaosTest, ConcurrentCrashDuringResolution) {
  // A server dies between answering the location query and serving the
  // open: the client recovers through refresh/avoid onto the replica.
  ClusterSpec spec;
  spec.servers = 3;
  spec.cms.deadline = std::chrono::milliseconds(400);
  SimCluster cluster(spec);
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", "x");
  cluster.PlaceFile(1, "/store/f", "x");
  auto& client = cluster.NewClient();
  // Warm the cache, then kill whichever server the NEXT redirect picks by
  // crashing both candidates alternately across iterations.
  cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false);

  cluster.CrashServer(0);
  // Do NOT let the manager hear about it: the cache still lists server 0
  // online until a send fails — the timing edge the refresh path covers.
  for (int i = 0; i < 4; ++i) {
    const auto open = cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false,
                                          std::chrono::minutes(2));
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << i;
    EXPECT_EQ(open.file.node, cluster.server(1).config().addr);
  }
}

TEST(ChaosTest, FullServerCreationFailsOverToEmptyOne) {
  // Build a 2-server cluster manually so one leaf has a tiny capacity.
  ClusterSpec spec;
  spec.servers = 2;
  spec.cms.deadline = std::chrono::milliseconds(300);
  SimCluster cluster(spec);
  cluster.Start();

  // Replace leaf 0's storage view by filling it beyond a pretend quota:
  // simplest honest setup — a dedicated capacity-limited node.
  oss::MemOss fullStorage(cluster.engine().clock(), /*capacityBytes=*/8);
  fullStorage.Put("/store/existing", "12345678");  // at capacity
  xrd::NodeConfig cfg = cluster.server(0).config();
  cfg.addr = 700;
  cfg.name = "fullserver";
  xrd::ScallaNode fullNode(cfg, cluster.engine(), cluster.fabric(), &fullStorage);
  cluster.fabric().Register(700, &fullNode);
  fullNode.Start();
  cluster.engine().RunUntilIdle();
  ASSERT_TRUE(fullNode.LoggedIn());

  // Force placement onto the full server first: round-robin will hit it
  // for some creations; every PutFile must still succeed via recovery.
  auto& client = cluster.NewClient();
  int recoveries = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string path = "/store/new" + std::to_string(i);
    const auto open = cluster.OpenAndWait(client, path, AccessMode::kWrite, true,
                                          std::chrono::minutes(2));
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << path;
    EXPECT_NE(open.file.node, 700u) << path;  // never lands on the full one
    recoveries += open.recoveries;
    std::optional<proto::XrdErr> closed;
    client.Close(open.file, [&closed](proto::XrdErr e) { closed = e; });
    cluster.engine().RunUntilIdle();
  }
  // At least one creation was bounced by the full server and recovered.
  EXPECT_GE(recoveries, 1);
  EXPECT_EQ(fullStorage.FileCount(), 1u);  // nothing new squeezed in
}

// ---- chaos over real sockets ----
// The same recoverability story, but against the TCP transport and its
// fault-injection hooks instead of the simulator: crash/restart cycles
// (real endpoint teardown) and injected partitions both leave clients
// making progress through the standard recovery rules.

class TcpChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(); }

  // Stands up manager + 3 servers + sync client, honouring whatever spec_
  // tuning the fixture applied first.
  void Build() {
    spec_.servers = 3;
    spec_.cms.deadline = std::chrono::milliseconds(500);
    spec_.cms.sweepPeriod = std::chrono::milliseconds(50);
    auto made = TcpCluster::Create(spec_, NextBasePort(PortBand::kChaos));
    ASSERT_TRUE(made.ok()) << made.error().message;
    cluster_ = std::move(made).value();
    client_ = cluster_->NewClient(syncTimeout_);
    ASSERT_NE(client_, nullptr);
  }

  net::NodeAddr Addr(std::size_t server) { return cluster_->server(server).config().addr; }

  ClusterSpec spec_;
  Duration syncTimeout_ = std::chrono::seconds(20);
  std::unique_ptr<TcpCluster> cluster_;
  client::SyncClient* client_ = nullptr;
};

TEST_F(TcpChaosTest, WorkloadSurvivesCrashRestartCyclesOverTcp) {
  // Every file on two replicas; crash one server per round (full endpoint
  // teardown — its connections die mid-protocol) and restart it fresh.
  for (std::size_t f = 0; f < 6; ++f) {
    const std::string path = "/store/f" + std::to_string(f);
    cluster_->storage(f % 3).Put(path, "data");
    cluster_->storage((f + 1) % 3).Put(path, "data");
  }

  for (std::size_t round = 0; round < 3; ++round) {
    const std::size_t victim = round % 3;
    cluster_->CrashServer(victim);

    for (int i = 0; i < 6; ++i) {
      const std::string path = "/store/f" + std::to_string(i);
      const auto data = client_->GetFile(path);
      ASSERT_TRUE(data.ok()) << "round " << round << " " << path << ": "
                             << data.error().message;
      EXPECT_EQ(data.value(), "data");
    }

    // Restart the victim as a fresh node on the same address; the files it
    // held come back with its storage, like a rebooted data server's.
    ASSERT_TRUE(cluster_->RestartServer(victim).ok());
  }
}

TEST_F(TcpChaosTest, InjectedPartitionRecoversViaRefreshAvoid) {
  // The file lives on two leaves; the client's link to one of them is cut
  // (injected partition — the leaf is healthy, the manager still lists
  // it). Every open must land on the reachable replica through the
  // paper's refresh/avoid recovery, and heal when the partition does.
  cluster_->storage(0).Put("/store/part", "x");
  cluster_->storage(1).Put("/store/part", "x");
  const auto warm = client_->Open("/store/part", AccessMode::kRead);
  ASSERT_EQ(warm.err, proto::XrdErr::kNone);
  (void)client_->Close(warm.file);

  const net::NodeAddr me = client_->async().config().addr;
  cluster_->fabric().SetLinkCut(me, Addr(0), true);
  for (int i = 0; i < 4; ++i) {
    const auto open = client_->Open("/store/part", AccessMode::kRead);
    ASSERT_EQ(open.err, proto::XrdErr::kNone)
        << i << " redirects=" << open.redirects << " waits=" << open.waits
        << " recoveries=" << open.recoveries;
    EXPECT_EQ(open.file.node, Addr(1)) << i;
    const auto data = client_->Read(open.file, 0, 8);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data.value(), "x");
    (void)client_->Close(open.file);
  }

  cluster_->fabric().SetLinkCut(me, Addr(0), false);
  // Healed: both replicas are reachable again; opens succeed either way.
  const auto open = client_->Open("/store/part", AccessMode::kRead);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);
  (void)client_->Close(open.file);
}

// ---- liveness over real sockets ----
// The heartbeat story of heartbeat_test.cc replayed against the TCP
// transport: a wedged endpoint (SetWedged — frames silently vanish in
// both directions, nobody's connection breaks, so no OnPeerDown ever
// fires) must be declared dead by the probe alone, vanish from
// resolution, and rejoin when the loss heals; overload suspension and
// the operator drain behave identically to the simulator.

class TcpLivenessTest : public TcpChaosTest {
 protected:
  void SetUp() override {
    spec_.cms.ping = std::chrono::milliseconds(150);
    spec_.cms.missLimit = 3;
    spec_.cms.suspendLoad = 100;
    spec_.cms.resumeLoad = 40;
    spec_.cms.dropDelay = std::chrono::minutes(30);  // the dead stay members
    // Every operation here either completes in milliseconds or is
    // expected to fail; cap how long a deliberate not-found can grind
    // through the client's recovery cycles.
    syncTimeout_ = std::chrono::seconds(5);
    Build();
  }

  void Wedge(std::size_t server, bool on) { cluster_->fabric().SetWedged(Addr(server), on); }

  // The head's membership view is internally locked: safe from the test
  // thread, unlike the node's own actor state.
  cms::Membership& Members() { return cluster_->head().membership(); }

  obs::MetricsSnapshot HeadMetrics() {
    xrd::ScallaNode& head = cluster_->head();
    return cluster_->RunOn(head.config().addr, [&head] { return head.SnapshotMetrics(); });
  }

  // Resolves a server's slot at the head by its planned name.
  ServerSlot SlotOf(std::size_t server) {
    const auto slot = Members().SlotOf(cluster_->server(server).config().name);
    EXPECT_TRUE(slot.has_value());
    return slot.value_or(0);
  }
};

TEST_F(TcpLivenessTest, WedgedServerDiesIsAvoidedAndRejoinsOnHeal) {
  cluster_->storage(0).Put("/store/live", "x");
  cluster_->storage(1).Put("/store/live", "x");
  cluster_->storage(0).Put("/store/only0", "x");  // sole replica on the victim
  const auto slot = SlotOf(0);

  Wedge(0, true);
  // Ping x misslimit is 450 ms; give the real clock ample slack but
  // require the death verdict to come from the heartbeat alone.
  ASSERT_TRUE(WaitFor([&] { return !Members().OnlineSet().test(slot); }));
  EXPECT_GE(HeadMetrics().Counter("membership.deaths"), 1u);

  // Dead means gone from resolution: every open lands on the live replica,
  // and the file whose only holder died is honestly not found.
  for (int i = 0; i < 4; ++i) {
    const auto open = client_->Open("/store/live", AccessMode::kRead);
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << i;
    EXPECT_EQ(open.file.node, Addr(1)) << i;
    (void)client_->Close(open.file);
  }
  EXPECT_NE(client_->Open("/store/only0", AccessMode::kRead).err,
            proto::XrdErr::kNone);

  // Heal the loss: the next probe's reconnect invitation brings it back,
  // and the paths only it holds resolve again — no full refresh involved.
  Wedge(0, false);
  ASSERT_TRUE(WaitFor([&] { return Members().IsSelectable(slot); }));
  EXPECT_GE(HeadMetrics().Counter("membership.rejoins"), 1u);

  const auto back = client_->Open("/store/only0", AccessMode::kRead);
  ASSERT_EQ(back.err, proto::XrdErr::kNone)
      << "redirects=" << back.redirects << " waits=" << back.waits;
  EXPECT_EQ(back.file.node, Addr(0));
  (void)client_->Close(back.file);
}

TEST_F(TcpLivenessTest, OverloadSuspendsAndResumesOverTcp) {
  cluster_->storage(0).Put("/store/s", "x");
  cluster_->storage(1).Put("/store/s", "x");
  const auto slot = SlotOf(0);

  // The server reports overload from its own loop, as the periodic load
  // reporter would.
  xrd::ScallaNode& victim = cluster_->server(0);
  cluster_->RunOn(Addr(0), [&victim] { victim.ReportLoad(150, std::uint64_t{1} << 30); });
  ASSERT_TRUE(WaitFor([&] { return Members().SuspendedSet().test(slot); }));
  EXPECT_TRUE(Members().OnlineSet().test(slot));  // alive, just busy

  for (int i = 0; i < 4; ++i) {
    const auto open = client_->Open("/store/s", AccessMode::kRead);
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << i;
    EXPECT_EQ(open.file.node, Addr(1)) << i;
    (void)client_->Close(open.file);
  }

  cluster_->RunOn(Addr(0), [&victim] { victim.ReportLoad(30, std::uint64_t{1} << 30); });
  ASSERT_TRUE(WaitFor([&] { return Members().IsSelectable(slot); }));
  std::set<net::NodeAddr> landed;
  for (int i = 0; i < 6; ++i) {
    const auto open = client_->Open("/store/s", AccessMode::kRead);
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << i;
    landed.insert(open.file.node);
    (void)client_->Close(open.file);
  }
  EXPECT_EQ(landed.count(Addr(0)), 1u);
}

TEST_F(TcpLivenessTest, OperatorDrainOverTcp) {
  cluster_->storage(0).Put("/store/d", "x");
  cluster_->storage(1).Put("/store/d", "x");
  const auto slot = SlotOf(0);
  const std::string victim = cluster_->server(0).config().name;

  const auto drained = client_->Drain(victim);
  ASSERT_TRUE(drained.ok()) << drained.error().message;
  EXPECT_TRUE(drained.value().applied);
  EXPECT_TRUE(Members().DrainingSet().test(slot));

  for (int i = 0; i < 4; ++i) {
    const auto open = client_->Open("/store/d", AccessMode::kRead);
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << i;
    EXPECT_EQ(open.file.node, Addr(1)) << i;
    (void)client_->Close(open.file);
  }

  const auto restored = client_->Drain(victim, /*restore=*/true);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  ASSERT_TRUE(WaitFor([&] { return Members().IsSelectable(slot); }));
  std::set<net::NodeAddr> landed;
  for (int i = 0; i < 6; ++i) {
    const auto open = client_->Open("/store/d", AccessMode::kRead);
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << i;
    landed.insert(open.file.node);
    (void)client_->Close(open.file);
  }
  EXPECT_EQ(landed.count(Addr(0)), 1u);

  const auto unknown = client_->Drain("nosuchserver");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("unknown server"), std::string::npos);
}

TEST(ChaosTest, CapacityEnforcedOnWriteGrowth) {
  util::ManualClock clock;
  oss::MemOss fs(clock, /*capacityBytes=*/10);
  ASSERT_TRUE(fs.Create("/f"));
  EXPECT_TRUE(fs.Write("/f", 0, "1234567890"));                         // exactly fits
  EXPECT_EQ(fs.Write("/f", 10, "x").code(), proto::XrdErr::kNoSpace);   // would grow
  EXPECT_TRUE(fs.Write("/f", 0, "overwrite!"));                         // in place ok
  EXPECT_EQ(fs.Create("/g").code(), proto::XrdErr::kNoSpace);
  ASSERT_TRUE(fs.Unlink("/f"));
  EXPECT_TRUE(fs.Create("/g"));  // space reclaimed
}

}  // namespace
}  // namespace scalla::sim
