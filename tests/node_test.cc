// Direct message-level tests of ScallaNode role behaviour, including the
// branches cluster-level tests do not reach: misdirected requests, unknown
// peers, export-change re-logins, and the set-full login redirect that
// grows the 64-ary tree past 64 servers.
#include <gtest/gtest.h>

#include "client/scalla_client.h"
#include "oss/mem_oss.h"
#include "oss/mss_oss.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
#include "xrd/scalla_node.h"

namespace scalla::xrd {
namespace {

using cms::AccessMode;

// Captures everything sent to one address.
struct Probe : net::MessageSink {
  std::vector<std::pair<net::NodeAddr, proto::Message>> received;
  void OnMessage(net::NodeAddr from, proto::Message m) override {
    received.emplace_back(from, std::move(m));
  }
  template <typename T>
  const T* Last() const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (const T* m = std::get_if<T>(&it->second)) return m;
    }
    return nullptr;
  }
};

class NodeTest : public ::testing::Test {
 protected:
  NodeTest() : fabric_(engine_, sim::LatencyModel{}) {}

  NodeConfig BaseConfig(NodeRole role, net::NodeAddr addr, net::NodeAddr parent) {
    NodeConfig cfg;
    cfg.role = role;
    cfg.addr = addr;
    cfg.parent = parent;
    cfg.name = "node" + std::to_string(addr);
    cfg.exports = {"/store"};
    cfg.cms.deadline = std::chrono::milliseconds(500);
    return cfg;
  }

  ScallaNode& AddNode(const NodeConfig& cfg, oss::Oss* storage) {
    nodes_.push_back(std::make_unique<ScallaNode>(cfg, engine_, fabric_, storage));
    fabric_.Register(cfg.addr, nodes_.back().get());
    return *nodes_.back();
  }

  oss::MemOss& AddStorage() {
    storages_.push_back(std::make_unique<oss::MemOss>(engine_.clock()));
    return *storages_.back();
  }

  sim::EventEngine engine_;
  sim::SimFabric fabric_;
  std::vector<std::unique_ptr<ScallaNode>> nodes_;
  std::vector<std::unique_ptr<oss::MemOss>> storages_;
};

TEST_F(NodeTest, LeafRejectsLoginAttempts) {
  auto& leaf = AddNode(BaseConfig(NodeRole::kServer, 2, 1), &AddStorage());
  (void)leaf;
  Probe probe;
  fabric_.Register(50, &probe);
  fabric_.Send(50, 2, proto::CmsLogin{"wanderer", {"/store"}, true, false});
  engine_.RunUntilIdle();
  const auto* resp = probe.Last<proto::CmsLoginResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_FALSE(resp->ok);
  EXPECT_NE(resp->error.find("not a cluster head"), std::string::npos);
}

TEST_F(NodeTest, HeadRejectsFileIo) {
  auto& mgr = AddNode(BaseConfig(NodeRole::kManager, 1, 0), nullptr);
  (void)mgr;
  Probe probe;
  fabric_.Register(50, &probe);
  fabric_.Send(50, 1, proto::XrdRead{1, 99, 0, 16});
  fabric_.Send(50, 1, proto::XrdWrite{2, 99, 0, "x"});
  engine_.RunUntilIdle();
  ASSERT_NE(probe.Last<proto::XrdReadResp>(), nullptr);
  EXPECT_EQ(probe.Last<proto::XrdReadResp>()->err, proto::XrdErr::kInvalid);
  EXPECT_EQ(probe.Last<proto::XrdWriteResp>()->err, proto::XrdErr::kInvalid);
}

TEST_F(NodeTest, LeafAnswersFedLocateWithInvalid) {
  AddNode(BaseConfig(NodeRole::kServer, 2, 1), &AddStorage());
  Probe probe;
  fabric_.Register(50, &probe);
  // A leaf has no members to name: it answers at once instead of leaving
  // the asker to time out.
  fabric_.Send(50, 2, proto::FedLocate{7, "/store/x", 0, false, 0});
  engine_.RunUntilIdle();
  const auto* resp = probe.Last<proto::FedRedirect>();
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->reqId, 7u);
  EXPECT_EQ(resp->status, proto::XrdStatus::kError);
  EXPECT_EQ(resp->err, proto::XrdErr::kInvalid);
}

TEST_F(NodeTest, HaveFromUnknownPeerIgnored) {
  auto& mgr = AddNode(BaseConfig(NodeRole::kManager, 1, 0), nullptr);
  Probe probe;
  fabric_.Register(50, &probe);
  // Unsolicited CmsHave from an address that never logged in.
  fabric_.Send(50, 1, proto::CmsHave{"/store/x", 1, false, true, false});
  engine_.RunUntilIdle();
  EXPECT_EQ(mgr.cache().GetStats().lookups, 0u);
}

TEST_F(NodeTest, ReloginWithNewExportsGetsNewIdentity) {
  auto& mgr = AddNode(BaseConfig(NodeRole::kManager, 1, 0), nullptr);
  Probe server;
  fabric_.Register(10, &server);
  fabric_.Send(10, 1, proto::CmsLogin{"s", {"/store"}, true, false});
  engine_.RunUntilIdle();
  const auto slot1 = server.Last<proto::CmsLoginResp>()->slot;
  const std::uint64_t epoch = mgr.membership().corrections().Epoch();

  fabric_.Send(10, 1, proto::CmsLogin{"s", {"/elsewhere"}, true, false});
  engine_.RunUntilIdle();
  const auto* resp2 = server.Last<proto::CmsLoginResp>();
  ASSERT_TRUE(resp2->ok);
  // New identity: the correction epoch moved even if the slot was reused.
  EXPECT_GT(mgr.membership().corrections().Epoch(), epoch);
  EXPECT_TRUE(mgr.membership().EligibleFor("/store/x").empty());
  EXPECT_FALSE(mgr.membership().EligibleFor("/elsewhere/x").empty());
  EXPECT_EQ(mgr.SlotOfAddr(10), resp2->slot);
  (void)slot1;
}

TEST_F(NodeTest, QueryModeWriteSkipsReadOnlyLeaf) {
  NodeConfig leafCfg = BaseConfig(NodeRole::kServer, 2, 1);
  leafCfg.allowWrite = false;
  auto& storage = AddStorage();
  storage.Put("/store/f", "x");
  AddNode(leafCfg, &storage);
  Probe parent;
  fabric_.Register(1, &parent);

  fabric_.Send(1, 2, proto::CmsQuery{"/store/f", 7, /*mode=*/1, false});  // write
  engine_.RunUntilIdle();
  EXPECT_EQ(parent.Last<proto::CmsHave>(), nullptr);  // silent: cannot serve writes

  fabric_.Send(1, 2, proto::CmsQuery{"/store/f", 7, /*mode=*/0, false});  // read
  engine_.RunUntilIdle();
  const auto* have = parent.Last<proto::CmsHave>();
  ASSERT_NE(have, nullptr);
  EXPECT_FALSE(have->allowWrite);
}

TEST_F(NodeTest, SetFullLoginRedirectsToSupervisor) {
  auto& mgr = AddNode(BaseConfig(NodeRole::kManager, 1, 0), nullptr);

  // A supervisor subordinate occupies one slot...
  NodeConfig supCfg = BaseConfig(NodeRole::kSupervisor, 2, 1);
  supCfg.name = "sup0";
  auto& sup = AddNode(supCfg, nullptr);
  sup.Start();
  engine_.RunUntilIdle();

  // ...and 63 direct servers fill the rest of the manager's set.
  std::vector<ScallaNode*> leaves;
  for (int i = 0; i < 63; ++i) {
    NodeConfig cfg = BaseConfig(NodeRole::kServer, static_cast<net::NodeAddr>(100 + i), 1);
    cfg.name = "direct" + std::to_string(i);
    leaves.push_back(&AddNode(cfg, &AddStorage()));
    leaves.back()->Start();
  }
  engine_.RunUntilIdle();
  ASSERT_EQ(mgr.membership().MemberCount(), 64u);

  // Server #65 cannot fit: the manager bounces it to the supervisor, and
  // it becomes part of the supervisor's subtree.
  NodeConfig extraCfg = BaseConfig(NodeRole::kServer, 500, 1);
  extraCfg.name = "overflow";
  auto& extraStorage = AddStorage();
  extraStorage.Put("/store/deep-file", "overflow data");
  auto& extra = AddNode(extraCfg, &extraStorage);
  extra.Start();
  engine_.RunUntilIdle();

  EXPECT_EQ(mgr.membership().MemberCount(), 64u);  // unchanged
  EXPECT_EQ(sup.membership().MemberCount(), 1u);   // adopted the newcomer
  EXPECT_TRUE(extra.LoggedIn());
  EXPECT_TRUE(extra.LoggedInTo(2));

  // The file on the overflow server resolves through the full tree:
  // manager -> supervisor (compressed response) -> leaf.
  client::ClientConfig cc;
  cc.addr = 900;
  cc.head = 1;
  client::ScallaClient client(cc, engine_, fabric_);
  fabric_.Register(900, &client);
  std::optional<client::OpenOutcome> out;
  client.Open("/store/deep-file", AccessMode::kRead, false,
              [&out](const client::OpenOutcome& o) { out = o; });
  engine_.RunUntilPredicate([&out] { return out.has_value(); },
                            engine_.Now() + std::chrono::seconds(30));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->err, proto::XrdErr::kNone);
  EXPECT_EQ(out->file.node, 500u);
  EXPECT_EQ(out->redirects, 2);  // manager -> supervisor -> overflow leaf
}

TEST_F(NodeTest, SetFullWithoutSupervisorStaysRejected) {
  auto& mgr = AddNode(BaseConfig(NodeRole::kManager, 1, 0), nullptr);
  for (int i = 0; i < 64; ++i) {
    NodeConfig cfg = BaseConfig(NodeRole::kServer, static_cast<net::NodeAddr>(100 + i), 1);
    cfg.name = "s" + std::to_string(i);
    AddNode(cfg, &AddStorage()).Start();
  }
  engine_.RunUntilIdle();
  ASSERT_EQ(mgr.membership().MemberCount(), 64u);

  Probe probe;
  fabric_.Register(700, &probe);
  fabric_.Send(700, 1, proto::CmsLogin{"later", {"/store"}, true, false});
  engine_.RunUntilIdle();
  const auto* resp = probe.Last<proto::CmsLoginResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->redirect, 0u);  // nowhere to grow
}

TEST_F(NodeTest, PrepareOnLeafKicksStages) {
  oss::MssOss* mss = nullptr;
  {
    auto storage = std::make_unique<oss::MssOss>(engine_.clock(), oss::MssConfig{});
    mss = storage.get();
    storages_.push_back(std::move(storage));
  }
  auto& leaf = AddNode(BaseConfig(NodeRole::kServer, 2, 1), mss);
  (void)leaf;
  mss->PutInMss("/store/t1", 10);
  mss->PutInMss("/store/t2", 10);
  Probe probe;
  fabric_.Register(50, &probe);
  fabric_.Send(50, 2, proto::XrdPrepare{9, {"/store/t1", "/store/t2", "/store/no"}, 0});
  engine_.RunUntilIdle();
  ASSERT_NE(probe.Last<proto::XrdPrepareResp>(), nullptr);
  EXPECT_EQ(mss->StagingCount(), 2u);
}

TEST_F(NodeTest, CreateRefusedByAFullLeafLandsOnTheOtherAndReadsBackThere) {
  auto& mgr = AddNode(BaseConfig(NodeRole::kManager, 1, 0), nullptr);
  // Leaf 2 logs in first and its one-byte disk is full, so it refuses
  // the create with kNoSpace; leaf 3 has room.
  storages_.push_back(std::make_unique<oss::MemOss>(engine_.clock(), 1));
  oss::MemOss& full = *storages_.back();
  full.Put("/store/filler", "x");
  AddNode(BaseConfig(NodeRole::kServer, 2, 1), &full).Start();
  engine_.RunUntilIdle();
  oss::MemOss& roomy = AddStorage();
  AddNode(BaseConfig(NodeRole::kServer, 3, 1), &roomy).Start();
  engine_.RunUntilIdle();
  ASSERT_EQ(mgr.membership().MemberCount(), 2u);
  mgr.Start();  // its sweep answers a parked open kWait at the deadline
  // From here on the manager hears nothing from its leaves, so no
  // CmsHave{newfile} reaches it: only its own record of each create
  // target steers the walks below.
  fabric_.SetDrop(2, 1, true);
  fabric_.SetDrop(3, 1, true);

  client::ClientConfig cc;
  cc.addr = 900;
  cc.head = 1;
  client::ScallaClient client(cc, engine_, fabric_);
  fabric_.Register(900, &client);
  const auto open = [&](AccessMode mode, bool create) {
    std::optional<client::OpenOutcome> out;
    client.Open("/store/new", mode, create,
                [&out](const client::OpenOutcome& o) { out = o; });
    engine_.RunUntilPredicate([&out] { return out.has_value(); },
                              engine_.Now() + std::chrono::seconds(30));
    return out.value_or(client::OpenOutcome{});
  };

  // The first target refuses; the client's refresh + avoid takes the
  // walk back to the manager, which drops that target and picks leaf 3.
  const client::OpenOutcome created = open(AccessMode::kWrite, true);
  ASSERT_EQ(created.err, proto::XrdErr::kNone);
  EXPECT_EQ(created.file.node, 3u);
  EXPECT_EQ(full.StateOf("/store/new"), oss::FileState::kAbsent);
  EXPECT_EQ(roomy.StateOf("/store/new"), oss::FileState::kOnline);
  const std::uint64_t recoveries = client.SnapshotMetrics().Counter("client.recoveries");
  EXPECT_EQ(recoveries, 1u);

  // An immediate read-back goes straight to leaf 3, not to the leaf that
  // refused.
  const client::OpenOutcome read = open(AccessMode::kRead, false);
  ASSERT_EQ(read.err, proto::XrdErr::kNone);
  EXPECT_EQ(read.file.node, 3u);
  EXPECT_EQ(read.redirects, 1);
  EXPECT_EQ(client.SnapshotMetrics().Counter("client.recoveries"), recoveries);
}

TEST_F(NodeTest, DescribeStatusMentionsKeyCounters) {
  auto& mgr = AddNode(BaseConfig(NodeRole::kManager, 1, 0), nullptr);
  auto& storage = AddStorage();
  storage.Put("/store/f", "x");
  auto& leaf = AddNode(BaseConfig(NodeRole::kServer, 2, 1), &storage);
  leaf.Start();
  engine_.RunUntilIdle();

  const std::string status = mgr.DescribeStatus();
  EXPECT_NE(status.find("manager"), std::string::npos);
  EXPECT_NE(status.find("members=1"), std::string::npos);
  EXPECT_NE(status.find("cache:"), std::string::npos);
  EXPECT_NE(status.find("resolver:"), std::string::npos);
  EXPECT_NE(leaf.DescribeStatus().find("server"), std::string::npos);
}

TEST_F(NodeTest, StatsCountersTrackActivity) {
  auto& mgr = AddNode(BaseConfig(NodeRole::kManager, 1, 0), nullptr);
  auto& storage = AddStorage();
  storage.Put("/store/f", "data");
  auto& leaf = AddNode(BaseConfig(NodeRole::kServer, 2, 1), &storage);
  leaf.Start();
  engine_.RunUntilIdle();

  client::ClientConfig cc;
  cc.addr = 900;
  cc.head = 1;
  client::ScallaClient client(cc, engine_, fabric_);
  fabric_.Register(900, &client);
  std::optional<client::OpenOutcome> out;
  client.Open("/store/f", AccessMode::kRead, false,
              [&out](const client::OpenOutcome& o) { out = o; });
  engine_.RunUntilPredicate([&out] { return out.has_value(); },
                            engine_.Now() + std::chrono::seconds(10));
  ASSERT_TRUE(out.has_value());

  EXPECT_EQ(leaf.SnapshotMetrics().Counter("node.queries_answered"), 1u);
  EXPECT_EQ(leaf.SnapshotMetrics().Counter("node.opens_served"), 1u);
  EXPECT_GE(mgr.SnapshotMetrics().Counter("node.redirects_issued"), 1u);
}

}  // namespace
}  // namespace scalla::xrd
