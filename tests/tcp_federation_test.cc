// Federation twin over real loopback TCP: one sim::TcpCluster hosts the
// plan of two independent clusters (manager + 2 data servers each) whose
// managers log into a meta-manager (a manager-role ScallaNode), every node
// on its own event loop, and a client holding only the meta address opens
// files in either cluster through the two-hop redirect walk. Tier-2: real
// sockets, real clocks.
#include <gtest/gtest.h>

#include "client/sync_client.h"
#include "sim/tcp_cluster.h"
#include "tcp_test_support.h"

namespace scalla {
namespace {

using cms::AccessMode;
using namespace std::chrono_literals;

class TcpFederationTest : public ::testing::Test {
 protected:
  // Two clusters of a manager and two data servers under one meta, with
  // the real-time cms tuning every TCP cluster test runs with.
  static sim::ClusterSpec Spec() {
    sim::ClusterSpec spec;
    spec.clusters = 2;
    spec.servers = 2;
    spec.cms.deadline = 500ms;
    spec.cms.sweepPeriod = 50ms;
    return spec;
  }

  void SetUp() override { Up(Spec()); }

  void Up(const sim::ClusterSpec& spec) {
    auto made = sim::TcpCluster::Create(spec, NextBasePort(PortBand::kTcpFederation));
    ASSERT_TRUE(made.ok()) << made.error().message;
    fed_ = std::move(made).value();
    client_ = fed_->NewClient(20s);  // knows ONLY the meta
    ASSERT_NE(client_, nullptr);
  }

  // Plan order: the meta is manager 0, then each cluster's manager and
  // its two leaves in turn.
  xrd::ScallaNode& ClusterHead(std::size_t c) { return fed_->manager(1 + c); }
  std::size_t Leaf(std::size_t c, std::size_t i) { return 2 * c + i; }

  obs::MetricsSnapshot MetaMetrics() {
    xrd::ScallaNode& meta = fed_->head();
    return fed_->RunOn(meta.config().addr, [&meta] { return meta.SnapshotMetrics(); });
  }

  std::unique_ptr<sim::TcpCluster> fed_;
  client::SyncClient* client_ = nullptr;
};

TEST_F(TcpFederationTest, OpensInEitherClusterThroughMetaOverRealSockets) {
  fed_->storage(Leaf(0, 0)).Put("/store/west", "first cluster");
  fed_->storage(Leaf(1, 1)).Put("/store/east", "second cluster");

  const auto west = client_->Open("/store/west", AccessMode::kRead);
  ASSERT_EQ(west.err, proto::XrdErr::kNone);
  EXPECT_GE(west.redirects, 2);  // meta -> head -> server
  EXPECT_EQ(west.file.node, fed_->server(Leaf(0, 0)).config().addr);
  const auto w = client_->Read(west.file, 0, 64);
  ASSERT_TRUE(w.ok()) << w.error().message;
  EXPECT_EQ(w.value(), "first cluster");
  EXPECT_TRUE(client_->Close(west.file).ok());

  const auto east = client_->Open("/store/east", AccessMode::kRead);
  ASSERT_EQ(east.err, proto::XrdErr::kNone);
  EXPECT_EQ(east.file.node, fed_->server(Leaf(1, 1)).config().addr);
  const auto e = client_->Read(east.file, 0, 64);
  ASSERT_TRUE(e.ok()) << e.error().message;
  EXPECT_EQ(e.value(), "second cluster");
  EXPECT_TRUE(client_->Close(east.file).ok());
}

TEST_F(TcpFederationTest, CreateThroughMetaLandsInSomeClusterAndReadsBack) {
  ASSERT_TRUE(client_->PutFile("/store/fresh", "born federated").ok());
  const auto data = client_->GetFile("/store/fresh");
  ASSERT_TRUE(data.ok()) << data.error().message;
  EXPECT_EQ(data.value(), "born federated");
}

TEST_F(TcpFederationTest, RepeatOpenHitsMetaCache) {
  fed_->storage(Leaf(0, 1)).Put("/store/hot", "x");
  const auto first = client_->Open("/store/hot", AccessMode::kRead);
  ASSERT_EQ(first.err, proto::XrdErr::kNone);
  EXPECT_TRUE(client_->Close(first.file).ok());

  const auto before = MetaMetrics();
  const auto second = client_->Open("/store/hot", AccessMode::kRead);
  ASSERT_EQ(second.err, proto::XrdErr::kNone);
  EXPECT_TRUE(client_->Close(second.file).ok());
  const auto after = MetaMetrics();
  EXPECT_GT(after.Counter("cache.hits"), before.Counter("cache.hits"));
}

// The meta's heartbeat over real sockets: a tight ping so a silent
// partition crosses ping x misslimit quickly, and a long drop delay so the
// dead cluster stays a member the meta can invite back.
class TcpFederationHeartbeatTest : public TcpFederationTest {
 protected:
  void SetUp() override {
    sim::ClusterSpec spec = Spec();
    spec.cms.ping = 200ms;
    spec.cms.missLimit = 3;
    spec.cms.dropDelay = 1h;
    Up(spec);
  }
};

TEST_F(TcpFederationHeartbeatTest, WholeClusterPartitionIsShedAndRelearnedOnRejoin) {
  fed_->storage(Leaf(0, 0)).Put("/store/a", "alpha");
  fed_->storage(Leaf(1, 0)).Put("/store/b", "beta");
  xrd::ScallaNode& meta = fed_->head();
  xrd::ScallaNode& head1 = ClusterHead(1);
  const net::NodeAddr metaAddr = meta.config().addr;
  const net::NodeAddr head1Addr = head1.config().addr;

  // Warm both locations into the meta's cache.
  ASSERT_TRUE(client_->GetFile("/store/a").ok());
  ASSERT_TRUE(client_->GetFile("/store/b").ok());
  const auto slot1 = fed_->RunOn(metaAddr, [&] { return meta.SlotOfAddr(head1Addr); });
  ASSERT_TRUE(slot1.has_value());
  const auto online1 = [&] {
    return fed_->RunOn(metaAddr, [&] { return meta.membership().OnlineSet().test(*slot1); });
  };

  // Silent partition: frames are dropped both ways and no connection
  // breaks, so only the meta's heartbeat can see it.
  fed_->fabric().SetDrop(metaAddr, head1Addr, true);
  fed_->fabric().SetDrop(head1Addr, metaAddr, true);
  ASSERT_TRUE(WaitFor([&] { return !online1(); }));
  EXPECT_GE(MetaMetrics().Counter("membership.deaths"), 1u);

  // The surviving cluster keeps serving through the meta.
  const auto a = client_->GetFile("/store/a");
  ASSERT_TRUE(a.ok()) << a.error().message;
  EXPECT_EQ(a.value(), "alpha");

  // Heal: the meta's reconnect invitation makes the head log in again, and
  // the relearned location serves the file again.
  fed_->fabric().SetDrop(metaAddr, head1Addr, false);
  fed_->fabric().SetDrop(head1Addr, metaAddr, false);
  ASSERT_TRUE(WaitFor([&] { return online1(); }));
  EXPECT_TRUE(
      WaitFor([&] { return fed_->RunOn(head1Addr, [&] { return head1.LoggedInTo(metaAddr); }); }));
  EXPECT_TRUE(WaitFor([&] {
    const auto b = client_->GetFile("/store/b");
    return b.ok() && b.value() == "beta";
  }));
}

}  // namespace
}  // namespace scalla
