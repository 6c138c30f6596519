// Integration tests over real loopback TCP, on clusters sim::TcpCluster
// builds from the simulator's plan: every node and client runs on its own
// event loop and endpoints communicate only through sockets — the
// "multi-process test on one server" configuration, with threads standing
// in as isolated actors. Also covers the wire framing under concurrency,
// connection-loss handling, and the host itself: plan parity with
// SimCluster over a supervisor chain under redundant heads, and teardown.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/sync_client.h"
#include "sim/cluster.h"
#include "sim/tcp_cluster.h"
#include "tcp_test_support.h"

namespace scalla {
namespace {

using cms::AccessMode;
using namespace std::chrono_literals;

// The real-time cms tuning every TCP cluster test runs with.
sim::ClusterSpec TcpSpec(int servers) {
  sim::ClusterSpec spec;
  spec.servers = servers;
  spec.cms.deadline = 500ms;
  spec.cms.sweepPeriod = 50ms;
  return spec;
}

class TcpClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto made = sim::TcpCluster::Create(TcpSpec(3), NextBasePort(PortBand::kTcpCluster));
    ASSERT_TRUE(made.ok()) << made.error().message;
    cluster_ = std::move(made).value();
    client_ = cluster_->NewClient(20s);
    ASSERT_NE(client_, nullptr);
  }

  net::NodeAddr Addr(std::size_t server) { return cluster_->server(server).config().addr; }

  std::unique_ptr<sim::TcpCluster> cluster_;
  client::SyncClient* client_ = nullptr;
};

TEST_F(TcpClusterTest, OpenReadOverRealSockets) {
  cluster_->storage(1).Put("/store/f1", "over the wire");
  const auto open = client_->Open("/store/f1", AccessMode::kRead);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_EQ(open.file.node, Addr(1));
  EXPECT_EQ(open.redirects, 1);

  const auto data = client_->Read(open.file, 0, 64);
  ASSERT_TRUE(data.ok()) << data.error().message;
  EXPECT_EQ(data.value(), "over the wire");
  EXPECT_TRUE(client_->Close(open.file).ok());
}

TEST_F(TcpClusterTest, CreateWriteReadBack) {
  ASSERT_TRUE(client_->PutFile("/store/new", "hello tcp").ok());
  const auto data = client_->GetFile("/store/new");
  ASSERT_TRUE(data.ok()) << data.error().message;
  EXPECT_EQ(data.value(), "hello tcp");
}

TEST_F(TcpClusterTest, StatAndUnlink) {
  cluster_->storage(0).Put("/store/s", "12345");
  const auto size = client_->Stat("/store/s");
  ASSERT_TRUE(size.ok()) << size.error().message;
  EXPECT_EQ(size.value(), 5u);
  EXPECT_TRUE(client_->Unlink("/store/s").ok());
  const auto open = client_->Open("/store/s", AccessMode::kRead);
  EXPECT_EQ(open.err, proto::XrdErr::kNotFound);
}

TEST_F(TcpClusterTest, MissingFileNotFound) {
  const auto open = client_->Open("/store/ghost", AccessMode::kRead);
  EXPECT_EQ(open.err, proto::XrdErr::kNotFound);
}

TEST_F(TcpClusterTest, ConcurrentClientsResolveIndependently) {
  for (std::size_t i = 0; i < 3; ++i) {
    cluster_->storage(i).Put("/store/c" + std::to_string(i), "data");
  }
  std::vector<client::SyncClient*> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(cluster_->NewClient(20s));
    ASSERT_NE(clients.back(), nullptr);
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < 20; ++i) {
        const std::string path = "/store/c" + std::to_string((c + i) % 3);
        const auto data = clients[static_cast<std::size_t>(c)]->GetFile(path);
        if (!data.ok() || data.value() != "data") ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(TcpClusterTest, DeadServerTriggersClientRecovery) {
  cluster_->storage(0).Put("/store/dual", "x");
  cluster_->storage(2).Put("/store/dual", "x");
  // Warm the manager cache.
  const auto first = client_->Open("/store/dual", AccessMode::kRead);
  ASSERT_EQ(first.err, proto::XrdErr::kNone);
  (void)client_->Close(first.file);

  // Kill one replica's endpoint entirely.
  cluster_->CrashServer(0);

  // Repeated opens must always land on the survivor, possibly after a
  // recovery hop through the head.
  for (int i = 0; i < 4; ++i) {
    const auto open = client_->Open("/store/dual", AccessMode::kRead);
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << i;
    EXPECT_EQ(open.file.node, Addr(2));
    (void)client_->Close(open.file);
  }
}

TEST_F(TcpClusterTest, StalledServerDelaysOnlyItsOwnTraffic) {
  // One destination is wedged (per-pair injected delay on the client's
  // writer queue); reads served by the other leaves must keep completing
  // at full speed — per-peer queues, no fabric-wide serialization.
  cluster_->storage(0).Put("/store/wedged", "w");
  cluster_->storage(1).Put("/store/fine1", "a");
  cluster_->storage(2).Put("/store/fine2", "b");

  // Resolve all three once so the manager cache pins each file to its
  // leaf and subsequent opens redirect deterministically.
  for (const char* p : {"/store/wedged", "/store/fine1", "/store/fine2"}) {
    const auto open = client_->Open(p, AccessMode::kRead);
    ASSERT_EQ(open.err, proto::XrdErr::kNone) << p;
    (void)client_->Close(open.file);
  }

  // A second client hammers the healthy leaves meanwhile.
  client::SyncClient* fast = cluster_->NewClient(20s);
  ASSERT_NE(fast, nullptr);

  // Wedge the client -> server0 pair only. Opens still route through the
  // manager; only the data path to server0 is stalled.
  const net::NodeAddr me = client_->async().config().addr;
  cluster_->fabric().SetDelay(me, Addr(0), 400ms);

  std::atomic<bool> wedgedDone{false};
  // A jthread joins on every way out of this test, a failed ASSERT too.
  std::jthread slow([&] {
    // Open redirects to server0, then the XrdOpen to it crawls through
    // the delayed queue.
    const auto open = client_->Open("/store/wedged", AccessMode::kRead);
    EXPECT_EQ(open.err, proto::XrdErr::kNone);
    (void)client_->Close(open.file);
    wedgedDone = true;
  });

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    const auto data = fast->GetFile(i % 2 == 0 ? "/store/fine1" : "/store/fine2");
    ASSERT_TRUE(data.ok()) << i;
  }
  const auto healthyElapsed = std::chrono::steady_clock::now() - start;
  // 20 healthy reads finish before even one 400 ms-delayed hop can.
  EXPECT_LT(healthyElapsed, 400ms);
  EXPECT_FALSE(wedgedDone.load());

  cluster_->fabric().SetDelay(me, Addr(0), Duration::zero());
  slow.join();
}

TEST_F(TcpClusterTest, ServerRestartReconnectsTransparently) {
  cluster_->storage(1).Put("/store/r", "before");
  ASSERT_TRUE(client_->GetFile("/store/r").ok());  // warm connections

  // Restart leaf 1: drop it from the fabric and bring it back on the
  // same address. Peers' cached connections to it are now stale.
  cluster_->CrashServer(1);
  cluster_->storage(1).Put("/store/r", "after");
  ASSERT_TRUE(cluster_->RestartServer(1).ok());
  ASSERT_EQ(cluster_->head().membership().MemberCount(), 3u);

  // Reads against the restarted leaf succeed again; the transport's
  // stale-connection retry shows up in the reconnect counter.
  const auto reconnectsBefore = cluster_->fabric().GetCounters().reconnects;
  const auto ok = [&] {
    const auto end = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < end) {
      const auto data = client_->GetFile("/store/r");
      if (data.ok() && data.value() == "after") return true;
      std::this_thread::sleep_for(50ms);
    }
    return false;
  }();
  EXPECT_TRUE(ok);
  EXPECT_GT(cluster_->fabric().GetCounters().reconnects, reconnectsBefore);
}

TEST_F(TcpClusterTest, StatsQueryAggregatesWholeCluster) {
  // Generate traffic, then ask the manager for tree-aggregated metrics.
  cluster_->storage(0).Put("/store/stats1", "aaaa");
  ASSERT_TRUE(client_->GetFile("/store/stats1").ok());
  ASSERT_TRUE(client_->PutFile("/store/stats2", "bbbb").ok());

  const auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats.value().nodeCount, 4u);  // manager + 3 leaves
  const auto& snap = stats.value().snapshot;
  EXPECT_EQ(snap.Counter("node.count"), 4u);
  EXPECT_GE(snap.Counter("node.opens_served"), 2u);
  EXPECT_GE(snap.Counter("node.redirects_issued"), 1u);
  EXPECT_GE(snap.Counter("node.logins_accepted"), 3u);
  EXPECT_GE(snap.Counter("node.reads"), 1u);
  EXPECT_GE(snap.Counter("node.writes"), 1u);
}

// ---- the host ----

TEST(TcpClusterHostTest, PlanMatchesSimulatorAndReachesTheDeepestLeaf) {
  // Five servers at fanout 2 under two redundant managers, plus the proxy:
  //   manager0, manager1 -> sup0 -> sup1 -> server0, server1
  //                              -> server2
  //                      -> sup2 -> server3, server4
  sim::ClusterSpec spec = TcpSpec(5);
  spec.fanout = 2;
  spec.managers = 2;
  spec.withProxy = true;
  sim::SimCluster des(spec);
  auto made = sim::TcpCluster::Create(spec, NextBasePort(PortBand::kTcpCluster));
  ASSERT_TRUE(made.ok()) << made.error().message;
  sim::TcpCluster& tcp = *made.value();

  const auto nodesOf = [](auto& cluster) {
    std::vector<xrd::ScallaNode*> nodes;
    for (std::size_t i = 0; i < cluster.ManagerCount(); ++i) nodes.push_back(&cluster.manager(i));
    for (std::size_t i = 0; i < cluster.SupervisorCount(); ++i) {
      nodes.push_back(&cluster.supervisor(i));
    }
    for (std::size_t i = 0; i < cluster.ServerCount(); ++i) nodes.push_back(&cluster.server(i));
    return nodes;
  };
  const auto desNodes = nodesOf(des);
  const auto tcpNodes = nodesOf(tcp);
  ASSERT_EQ(tcpNodes.size(), desNodes.size());
  EXPECT_EQ(tcp.SupervisorCount(), 3u);
  EXPECT_EQ(tcp.Depth(), des.Depth());
  for (std::size_t i = 0; i < tcpNodes.size(); ++i) {
    const xrd::NodeConfig& want = desNodes[i]->config();
    const xrd::NodeConfig& got = tcpNodes[i]->config();
    EXPECT_EQ(got.addr, want.addr) << want.name;
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.role, want.role) << want.name;
    EXPECT_EQ(got.parent, want.parent) << want.name;
    EXPECT_EQ(got.extraParents, want.extraParents) << want.name;
    // Over TCP every node logged into every parent.
    xrd::ScallaNode* node = tcpNodes[i];
    EXPECT_TRUE(tcp.RunOn(got.addr, [node] { return node->LoggedIn(); })) << want.name;
  }
  EXPECT_EQ(tcp.supervisor(0).Parents().size(), 2u);  // both managers
  EXPECT_EQ(tcp.proxy()->config().addr, des.proxy()->config().addr);

  // server0 is the deepest leaf: manager0 -> sup0 -> sup1 -> server0. A
  // file only it holds opens with one redirect per level.
  EXPECT_EQ(tcp.Depth(), 3);
  EXPECT_EQ(tcp.server(0).config().parent, tcp.supervisor(1).config().addr);
  EXPECT_EQ(tcp.supervisor(1).config().parent, tcp.supervisor(0).config().addr);
  tcp.storage(0).Put("/store/deep", "bottom");
  client::SyncClient* client = tcp.NewClient(20s);
  ASSERT_NE(client, nullptr);
  const auto open = client->Open("/store/deep", AccessMode::kRead);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_EQ(open.file.node, tcp.server(0).config().addr);
  EXPECT_EQ(open.redirects, tcp.Depth());
  EXPECT_TRUE(client->Close(open.file).ok());
}

TEST(TcpClusterHostTest, TeardownAfterCrashRestartClientsAndAnOpenInFlight) {
  auto made = sim::TcpCluster::Create(TcpSpec(3), NextBasePort(PortBand::kTcpCluster));
  ASSERT_TRUE(made.ok()) << made.error().message;
  std::unique_ptr<sim::TcpCluster> cluster = std::move(made).value();
  cluster->storage(1).Put("/store/t", "x");
  cluster->CrashServer(0);
  ASSERT_TRUE(cluster->RestartServer(0).ok());

  std::vector<client::SyncClient*> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(cluster->NewClient(20s));
    ASSERT_NE(clients.back(), nullptr);
  }
  ASSERT_TRUE(clients[0]->GetFile("/store/t").ok());

  // Hold the next open's first frame in its client's queue, so the open
  // is still in flight when the host goes.
  client::SyncClient* c = clients[1];
  const net::NodeAddr addr = c->async().config().addr;
  cluster->fabric().SetDelay(addr, cluster->head().config().addr, 10s);
  auto finished = std::make_shared<std::atomic<bool>>(false);
  cluster->RunOn(addr, [c, finished] {
    c->async().Open("/store/t", AccessMode::kRead, false,
                    [finished](const client::OpenOutcome&) { *finished = true; });
  });
  cluster.reset();
  EXPECT_FALSE(finished->load());
}

}  // namespace
}  // namespace scalla
