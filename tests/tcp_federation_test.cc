// Federation twin over real loopback TCP: two independent clusters
// (manager + 2 data servers each, built by sim::TcpCluster on one shared
// fabric) whose managers log into a meta-manager (a manager-role
// ScallaNode configured like SimFederation's), every node on its own
// event loop, and a client holding only the meta address opens files in
// either cluster through the two-hop redirect walk. Tier-2: real
// sockets, real clocks.
#include <gtest/gtest.h>

#include <optional>

#include "client/sync_client.h"
#include "net/endpoint_guard.h"
#include "net/tcp_fabric.h"
#include "sched/thread_executor.h"
#include "sim/federation.h"
#include "sim/tcp_cluster.h"
#include "tcp_test_support.h"

namespace scalla {
namespace {

using cms::AccessMode;

class TcpFederationTest : public ::testing::Test {
 protected:
  static constexpr net::NodeAddr kMeta = 1;

  void SetUp() override {
    cms::CmsConfig cms;
    cms.deadline = std::chrono::milliseconds(500);
    cms.sweepPeriod = std::chrono::milliseconds(50);

    xrd::NodeConfig mcfg = sim::DefaultMetaConfig();
    mcfg.addr = kMeta;
    mcfg.cms = cms;
    meta_ = std::make_unique<xrd::ScallaNode>(mcfg, metaLoop_, fabric_, nullptr);
    ASSERT_TRUE(fabric_.Register(kMeta, meta_.get(), &metaLoop_));
    metaGuard_.emplace(fabric_, kMeta, metaLoop_);
    metaLoop_.RunSync([this] { meta_->Start(); });

    // Cluster c takes addresses 10(c+1) on: its manager, then its servers.
    for (int c = 0; c < 2; ++c) {
      sim::ClusterSpec spec;
      spec.servers = 2;
      spec.cms = cms;
      spec.meta = kMeta;
      spec.clusterName = "cluster" + std::to_string(c);
      auto made = sim::TcpCluster::Create(spec, fabric_, 10 * (c + 1));
      ASSERT_TRUE(made.ok()) << made.error().message;
      clusters_[c] = std::move(made).value();
    }

    client_ = clusters_[0]->NewClient(std::chrono::seconds(20), kMeta);  // knows ONLY the meta
    ASSERT_NE(client_, nullptr);
  }

  void TearDown() override {
    for (auto& cluster : clusters_) cluster.reset();
    metaLoop_.RunSync([this] { meta_->Stop(); });
    metaGuard_.reset();  // unregisters the meta, then stops its loop
  }

  net::TcpFabric fabric_{NextBasePort(PortBand::kTcpFederation)};
  sched::ThreadExecutor metaLoop_;
  std::unique_ptr<xrd::ScallaNode> meta_;
  std::optional<net::EndpointGuard> metaGuard_;
  std::unique_ptr<sim::TcpCluster> clusters_[2];
  client::SyncClient* client_ = nullptr;
};

TEST_F(TcpFederationTest, OpensInEitherClusterThroughMetaOverRealSockets) {
  clusters_[0]->storage(0).Put("/store/west", "first cluster");
  clusters_[1]->storage(1).Put("/store/east", "second cluster");

  const auto west = client_->Open("/store/west", AccessMode::kRead);
  ASSERT_EQ(west.err, proto::XrdErr::kNone);
  EXPECT_GE(west.redirects, 2);  // meta -> head -> server
  EXPECT_EQ(west.file.node, clusters_[0]->server(0).config().addr);
  const auto w = client_->Read(west.file, 0, 64);
  ASSERT_TRUE(w.ok()) << w.error().message;
  EXPECT_EQ(w.value(), "first cluster");
  EXPECT_TRUE(client_->Close(west.file).ok());

  const auto east = client_->Open("/store/east", AccessMode::kRead);
  ASSERT_EQ(east.err, proto::XrdErr::kNone);
  EXPECT_EQ(east.file.node, clusters_[1]->server(1).config().addr);
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
  clusters_[0]->storage(1).Put("/store/hot", "x");
  const auto first = client_->Open("/store/hot", AccessMode::kRead);
  ASSERT_EQ(first.err, proto::XrdErr::kNone);
  EXPECT_TRUE(client_->Close(first.file).ok());

  const auto snapshot = [this] {
    obs::MetricsSnapshot snap;
    metaLoop_.RunSync([&] { snap = meta_->SnapshotMetrics(); });
    return snap;
  };
  const auto before = snapshot();
  const auto second = client_->Open("/store/hot", AccessMode::kRead);
  ASSERT_EQ(second.err, proto::XrdErr::kNone);
  EXPECT_TRUE(client_->Close(second.file).ok());
  const auto after = snapshot();
  EXPECT_GT(after.Counter("cache.hits"), before.Counter("cache.hits"));
}

}  // namespace
}  // namespace scalla
