// Federation tier over the simulator: independent clusters' heads log
// into a meta-manager, their parent, which exports one global namespace.
// A client holding ONLY the meta address opens files in any member
// cluster through the two-hop redirect walk; repeat opens hit the meta's
// cluster-location cache; a whole-cluster partition is detected by the
// federation heartbeat, shed in O(1) correction-vector work and recovered
// on rejoin. The TCP twin lives in tcp_federation_test.cc.
#include <gtest/gtest.h>

#include <chrono>

#include "client/scalla_client.h"
#include "net/fabric.h"
#include "sim/cluster.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
#include "walk_test_support.h"

namespace scalla::sim {
namespace {

using cms::AccessMode;

ClusterSpec TwoClusterSpec() {
  ClusterSpec spec;
  spec.clusters = 2;
  spec.servers = 2;
  return spec;
}

// Cluster c's first head and the index of its leaf i, in plan order: the
// meta is manager 0, then each cluster's managers and leaves in turn.
xrd::ScallaNode& ClusterHead(SimCluster& fed, std::size_t c) {
  return fed.manager(1 + c * fed.spec().managers);
}
std::size_t Leaf(SimCluster& fed, std::size_t c, std::size_t i) {
  return c * fed.spec().servers + i;
}
net::NodeAddr LeafAddr(SimCluster& fed, std::size_t c, std::size_t i) {
  return fed.server(Leaf(fed, c, i)).config().addr;
}

TEST(FederationTest, HeadsLogIntoMetaOnStart) {
  SimCluster fed(TwoClusterSpec());
  fed.Start();
  const net::NodeAddr meta = fed.head().config().addr;
  EXPECT_TRUE(ClusterHead(fed, 0).LoggedInTo(meta));
  EXPECT_TRUE(ClusterHead(fed, 1).LoggedInTo(meta));
  EXPECT_NE(fed.head().SlotOfAddr(ClusterHead(fed, 0).config().addr),
            fed.head().SlotOfAddr(ClusterHead(fed, 1).config().addr));
  EXPECT_EQ(fed.head().membership().MemberCount(), 2u);
  EXPECT_GE(fed.head().SnapshotMetrics().Counter("node.logins_accepted"), 2u);
}

TEST(FederationTest, ClientOpensFilesInEitherClusterThroughMetaOnly) {
  SimCluster fed(TwoClusterSpec());
  fed.PlaceFile(Leaf(fed, 0, 0), "/store/a", "alpha");
  fed.PlaceFile(Leaf(fed, 1, 1), "/store/b", "beta");
  fed.Start();
  auto& c = fed.NewClient();  // knows only the meta address

  const auto a = fed.ReadAll(c, "/store/a");
  ASSERT_TRUE(a.ok()) << a.error().message;
  EXPECT_EQ(a.value(), "alpha");

  const auto b = fed.ReadAll(c, "/store/b");
  ASSERT_TRUE(b.ok()) << b.error().message;
  EXPECT_EQ(b.value(), "beta");

  // Both walks went meta -> cluster head -> data server: at least two
  // redirect hops, landing on the leaf that holds the file.
  const auto openA = fed.OpenAndWait(c, "/store/a", AccessMode::kRead, false);
  ASSERT_EQ(openA.err, proto::XrdErr::kNone);
  EXPECT_GE(openA.redirects, 2);
  EXPECT_EQ(openA.file.node, LeafAddr(fed, 0, 0));
  const auto openB = fed.OpenAndWait(c, "/store/b", AccessMode::kRead, false);
  ASSERT_EQ(openB.err, proto::XrdErr::kNone);
  EXPECT_EQ(openB.file.node, LeafAddr(fed, 1, 1));
}

TEST(FederationTest, RepeatOpensHitMetaClusterLocationCache) {
  SimCluster fed(TwoClusterSpec());
  fed.PlaceFile(Leaf(fed, 0, 0), "/store/hot", "x");
  fed.Start();
  auto& c = fed.NewClient();

  ASSERT_EQ(fed.OpenAndWait(c, "/store/hot", AccessMode::kRead, false).err,
            proto::XrdErr::kNone);
  const auto before = fed.head().SnapshotMetrics();

  ASSERT_EQ(fed.OpenAndWait(c, "/store/hot", AccessMode::kRead, false).err,
            proto::XrdErr::kNone);
  const auto after = fed.head().SnapshotMetrics();

  // The second resolution was served from the meta's name cache: a hit,
  // no new CmsQuery flood, and one more redirect issued.
  EXPECT_GT(after.Counter("cache.hits"), before.Counter("cache.hits"));
  EXPECT_EQ(after.Counter("resolver.queries_sent"), before.Counter("resolver.queries_sent"));
  EXPECT_GT(after.Counter("node.redirects_issued"), before.Counter("node.redirects_issued"));
}

// Member clusters that are flat (servers right under the head) or deep
// (servers = 8, fanout = 2: manager -> supervisor -> supervisor -> leaf).
class FederationCreateTest : public ::testing::TestWithParam<int> {};

TEST_P(FederationCreateTest, CreateRoutesToAWritableClusterAndMetaLearnsIt) {
  ClusterSpec spec = TwoClusterSpec();
  if (GetParam() > 0) {
    spec.servers = 8;
    spec.fanout = GetParam();
  }
  SimCluster fed(spec);
  fed.Start();
  auto& c = fed.NewClient();

  const auto put = fed.PutFile(c, "/store/new", "fresh");
  ASSERT_TRUE(put.ok()) << put.error().message;
  // The leaf's CmsHave{newfile} climbs every parent link, the head's into
  // the meta included.
  fed.RunFor(std::chrono::seconds(1));
  const auto queriesBefore = fed.head().SnapshotMetrics().Counter("resolver.queries_sent");

  const auto back = fed.ReadAll(c, "/store/new");
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value(), "fresh");
  // The meta learnt the new file from the digest: the read-back's open is
  // answered from its cache, with no query to the cluster heads.
  EXPECT_EQ(fed.head().SnapshotMetrics().Counter("resolver.queries_sent"), queriesBefore);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FederationCreateTest, ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? std::string("Flat")
                                                  : "Fanout" + std::to_string(info.param);
                         });

TEST(FederationTest, ReadBackRightAfterCreateBeatsTheNewfileDigest) {
  SimCluster fed(TwoClusterSpec());
  fed.Start();
  // Every leaf's frames to its head take 5 ms longer, so the read-back's
  // open reaches the meta before the CmsHave{newfile} digest does.
  for (std::size_t i = 0; i < fed.ServerCount(); ++i) {
    const xrd::NodeConfig& leaf = fed.server(i).config();
    fed.fabric().SetDelay(leaf.addr, leaf.parent, std::chrono::milliseconds(5));
  }
  auto& c = fed.NewClient();
  ASSERT_TRUE(fed.PutFile(c, "/store/fresh", "born federated").ok());
  const auto back = fed.ReadAll(c, "/store/fresh");
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value(), "born federated");
}

TEST(FederationTest, LocalityWeightSteersCrossClusterReplicaChoice) {
  ClusterSpec spec = TwoClusterSpec();
  // Cluster 0 is far (weight 5), cluster 1 near (0); load selection at
  // the meta ranks each cluster by locality * kLocalityScale + its load.
  spec.localities = {5, 0};
  SimCluster fed(spec);
  fed.PlaceFile(Leaf(fed, 0, 0), "/store/both", "x");
  fed.PlaceFile(Leaf(fed, 1, 0), "/store/both", "x");
  fed.Start();
  auto& c = fed.NewClient();

  // Warm the meta's cache so it holds bits for BOTH owning clusters.
  ASSERT_EQ(fed.OpenAndWait(c, "/store/both", AccessMode::kRead, false).err,
            proto::XrdErr::kNone);
  // Cached resolutions now pick by effective load: the near cluster wins.
  for (int i = 0; i < 4; ++i) {
    const auto o = fed.OpenAndWait(c, "/store/both", AccessMode::kRead, false);
    ASSERT_EQ(o.err, proto::XrdErr::kNone);
    EXPECT_EQ(o.file.node, LeafAddr(fed, 1, 0));
  }
}

TEST(FederationTest, FarClusterIsNotSuspendedForItsDistance) {
  ClusterSpec spec = TwoClusterSpec();
  // Cluster 0 is far (weight 5 = 5000 load units of preference). Locality
  // only ranks holders; the suspension threshold sees the reported load,
  // which is 0, so the far cluster stays selectable.
  spec.localities = {5, 0};
  spec.cms.suspendLoad = 100;
  SimCluster fed(spec);
  fed.PlaceFile(Leaf(fed, 0, 0), "/store/far-only", "x");
  fed.Start();
  auto& c = fed.NewClient();

  const TimePoint start = fed.engine().Now();
  const auto o = fed.OpenAndWait(c, "/store/far-only", AccessMode::kRead, false);
  ASSERT_EQ(o.err, proto::XrdErr::kNone);
  EXPECT_EQ(o.file.node, LeafAddr(fed, 0, 0));
  EXPECT_LT(fed.engine().Now() - start, std::chrono::seconds(1));  // no full delay
  EXPECT_EQ(fed.head().SnapshotMetrics().Counter("membership.suspends"), 0u);
  EXPECT_TRUE(fed.head().membership().SuspendedSet().empty());
}

TEST(FederationTest, WholeClusterPartitionIsShedAndRelearnedOnRejoin) {
  ClusterSpec spec = TwoClusterSpec();
  // Tight heartbeat so the test crosses ping x misslimit quickly; dead
  // clusters stay members (an operator would drop them much later).
  spec.cms.ping = std::chrono::seconds(1);
  spec.cms.missLimit = 3;
  spec.cms.dropDelay = std::chrono::hours(1);
  SimCluster fed(spec);
  fed.PlaceFile(Leaf(fed, 0, 0), "/store/a", "alpha");
  fed.PlaceFile(Leaf(fed, 1, 0), "/store/b", "beta");
  fed.Start();
  auto& c = fed.NewClient();

  // Warm both locations into the meta's cache.
  ASSERT_TRUE(fed.ReadAll(c, "/store/a").ok());
  ASSERT_TRUE(fed.ReadAll(c, "/store/b").ok());
  const net::NodeAddr meta = fed.head().config().addr;
  const net::NodeAddr head1 = ClusterHead(fed, 1).config().addr;
  const auto slot1 = fed.head().SlotOfAddr(head1);
  ASSERT_TRUE(slot1.has_value());

  // Silent partition: no connection breaks, only the heartbeat can see it.
  fed.fabric().SetDrop(meta, head1, true);
  fed.fabric().SetDrop(head1, meta, true);
  fed.RunFor(std::chrono::seconds(5));  // > ping x misslimit
  EXPECT_FALSE(fed.head().membership().OnlineSet().test(*slot1));
  EXPECT_GE(fed.head().SnapshotMetrics().Counter("membership.deaths"), 1u);

  // The surviving cluster keeps serving through the meta.
  const auto a = fed.ReadAll(c, "/store/a");
  ASSERT_TRUE(a.ok()) << a.error().message;
  // The dead cluster's cached location bits are shed lazily by the
  // correction vector — O(1) at declaration, corrected per-entry on use.
  const auto openB = fed.OpenAndWait(c, "/store/b", AccessMode::kRead, false,
                                     std::chrono::seconds(30));
  EXPECT_NE(openB.err, proto::XrdErr::kNone);
  EXPECT_GT(fed.head().SnapshotMetrics().Counter("cache.corrections"), 0u);

  // Heal: the meta's reconnect invitation makes the head log in again, and
  // the relearned location serves the file again within bounded retries.
  fed.fabric().SetDrop(meta, head1, false);
  fed.fabric().SetDrop(head1, meta, false);
  fed.RunFor(std::chrono::seconds(5));
  EXPECT_TRUE(fed.head().membership().OnlineSet().test(*slot1));
  EXPECT_TRUE(ClusterHead(fed, 1).LoggedInTo(meta));
  bool recovered = false;
  for (int attempt = 0; attempt < 5 && !recovered; ++attempt) {
    const auto back = fed.ReadAll(c, "/store/b");
    recovered = back.ok() && back.value() == "beta";
    if (!recovered) fed.RunFor(std::chrono::seconds(2));
  }
  EXPECT_TRUE(recovered);
}

TEST(FederationTest, StatsQueryAtMetaMergesEveryCluster) {
  SimCluster fed(TwoClusterSpec());
  fed.Start();
  const auto stats = fed.ClusterStats();
  ASSERT_TRUE(stats.ok);
  // The meta itself plus both complete cluster trees (head + 2 servers,
  // plus any supervisors) folded into one snapshot.
  EXPECT_GE(stats.nodeCount, 1u + 2u * 3u);
  EXPECT_GE(stats.snapshot.Counter("node.logins_accepted"), 2u);
  // The merged node.members sums every head's members, so the cluster
  // count is the meta's own gauge.
  EXPECT_EQ(fed.head().SnapshotMetrics().Gauge("node.members"), 2);
}

TEST(FederationTest, EdgeProxyFrontsTheFederation) {
  ClusterSpec spec = TwoClusterSpec();
  spec.withProxy = true;  // its origin head is the meta
  SimCluster fed(spec);
  fed.PlaceFile(Leaf(fed, 1, 0), "/store/far", "cached-once");
  fed.Start();
  auto& c = fed.NewProxyClient();  // head IS the edge proxy

  const auto first = fed.ReadAll(c, "/store/far");
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first.value(), "cached-once");
  // Second read is served from the edge cache block store.
  const auto second = fed.ReadAll(c, "/store/far");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), "cached-once");
}

// Two heads pointing at each other: without the redirect-loop guard the
// client would ping-pong forever; with it the walk fails fast with the
// distinct kLoop error after client::kMaxRedirects hops.
class PingPongHead : public net::MessageSink {
 public:
  PingPongHead(net::Fabric& fabric, net::NodeAddr self, net::NodeAddr other)
      : fabric_(fabric), self_(self), other_(other) {}

  void OnMessage(net::NodeAddr from, proto::Message message) override {
    AnswerWalk(message, [&](const auto&, auto& resp) {
      ++requestsSeen_;
      resp.status = proto::XrdStatus::kRedirect;
      resp.redirectNode = other_;
      fabric_.Send(self_, from, resp);
    });
  }
  void OnPeerDown(net::NodeAddr) override {}

  int requestsSeen() const { return requestsSeen_; }

 private:
  net::Fabric& fabric_;
  net::NodeAddr self_;
  net::NodeAddr other_;
  int requestsSeen_ = 0;
};

TEST(FederationTest, RedirectLoopGuardFailsWithDistinctError) {
  EventEngine engine;
  SimFabric fabric(engine, LatencyModel{});
  PingPongHead a(fabric, 10, 11);
  PingPongHead b(fabric, 11, 10);
  fabric.Register(10, &a);
  fabric.Register(11, &b);

  client::ClientConfig cfg;
  cfg.addr = 1;
  cfg.head = 10;
  client::ScallaClient c(cfg, engine, fabric);
  fabric.Register(cfg.addr, &c);

  auto outcome = std::make_shared<std::optional<client::OpenOutcome>>();
  c.Open("/store/loop", AccessMode::kRead, false,
         [outcome](const client::OpenOutcome& o) { *outcome = o; });
  engine.RunUntilPredicate([outcome] { return outcome->has_value(); },
                           engine.Now() + std::chrono::seconds(30));
  ASSERT_TRUE(outcome->has_value());
  EXPECT_EQ((*outcome)->err, proto::XrdErr::kLoop);
  EXPECT_EQ((*outcome)->redirects, client::kMaxRedirects + 1);
  EXPECT_EQ(c.SnapshotMetrics().Counter("client.redirect_loop_breaks"), 1u);
}

TEST(FederationTest, RedirectLoopGuardCoversEveryWalk) {
  for (const WalkKind kind : kWalkKinds) {
    SCOPED_TRACE(WalkName(kind));
    EventEngine engine;
    SimFabric fabric(engine, LatencyModel{});
    PingPongHead a(fabric, 10, 11);
    PingPongHead b(fabric, 11, 10);
    fabric.Register(10, &a);
    fabric.Register(11, &b);

    client::ClientConfig cfg;
    cfg.addr = 1;
    cfg.head = 10;
    client::ScallaClient c(cfg, engine, fabric);
    fabric.Register(cfg.addr, &c);

    std::optional<proto::XrdErr> err;
    StartWalk(c, kind, "/store/loop", [&err](proto::XrdErr e) { err = e; });
    engine.RunUntilPredicate([&err] { return err.has_value(); },
                             engine.Now() + std::chrono::seconds(30));
    EXPECT_EQ(err, proto::XrdErr::kLoop);
    EXPECT_EQ(a.requestsSeen() + b.requestsSeen(), client::kMaxRedirects + 1);
    const obs::MetricsSnapshot snap = c.SnapshotMetrics();
    EXPECT_EQ(snap.Counter("client.redirects_followed"),
              static_cast<std::uint64_t>(client::kMaxRedirects));
    EXPECT_EQ(snap.Counter("client.redirect_loop_breaks"), 1u);
  }
}

}  // namespace
}  // namespace scalla::sim
