// Tests for the extended client/protocol surface: vector reads, checksum
// queries, the namespace daemon end-to-end, load-based selection with
// periodic reports, client bounds (hop caps, recovery caps), and the one
// request walk that opens, stats, unlinks and checksums share.
#include <gtest/gtest.h>

#include <algorithm>

#include "client/scalla_client.h"
#include "sim/cluster.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
#include "util/crc32.h"
#include "walk_test_support.h"

namespace scalla::sim {
namespace {

using cms::AccessMode;

ClusterSpec FastSpec(int servers) {
  ClusterSpec spec;
  spec.servers = servers;
  spec.cms.deadline = std::chrono::milliseconds(600);
  return spec;
}

TEST(ClientFeaturesTest, VectorReadReturnsAllSegments) {
  SimCluster cluster(FastSpec(3));
  cluster.Start();
  std::string content;
  for (int i = 0; i < 1000; ++i) content += static_cast<char>('a' + i % 26);
  cluster.PlaceFile(1, "/store/v", content);

  auto& client = cluster.NewClient();
  const auto open = cluster.OpenAndWait(client, "/store/v", AccessMode::kRead, false);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);

  std::vector<proto::ReadSeg> segs{{0, 5}, {100, 10}, {990, 20}, {5000, 4}};
  std::optional<std::pair<proto::XrdErr, std::vector<std::string>>> result;
  client.ReadV(open.file, segs,
               [&result](proto::XrdErr err, std::vector<std::string> chunks) {
                 result = std::make_pair(err, std::move(chunks));
               });
  cluster.engine().RunUntilIdle();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->first, proto::XrdErr::kNone);
  ASSERT_EQ(result->second.size(), 4u);
  EXPECT_EQ(result->second[0], content.substr(0, 5));
  EXPECT_EQ(result->second[1], content.substr(100, 10));
  EXPECT_EQ(result->second[2], content.substr(990, 10));  // truncated at EOF
  EXPECT_TRUE(result->second[3].empty());                 // wholly past EOF
}

TEST(ClientFeaturesTest, VectorReadBadHandleFails) {
  SimCluster cluster(FastSpec(2));
  cluster.Start();
  cluster.PlaceFile(0, "/store/v", "x");
  auto& client = cluster.NewClient();
  const auto open = cluster.OpenAndWait(client, "/store/v", AccessMode::kRead, false);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);
  std::optional<proto::XrdErr> err;
  client.ReadV(client::FileRef{open.file.node, 0xDEAD},
               {{0, 4}},
               [&err](proto::XrdErr e, std::vector<std::string>) { err = e; });
  cluster.engine().RunUntilIdle();
  EXPECT_EQ(err, proto::XrdErr::kInvalid);
}

TEST(ClientFeaturesTest, ChecksumMatchesLocalCrc) {
  SimCluster cluster(FastSpec(4));
  cluster.Start();
  const std::string content = "checksummed content with some length to it";
  cluster.PlaceFile(2, "/store/c", content);

  auto& client = cluster.NewClient();
  std::optional<std::pair<proto::XrdErr, std::uint32_t>> result;
  client.Checksum("/store/c", [&result](proto::XrdErr err, std::uint32_t crc) {
    result = std::make_pair(err, crc);
  });
  cluster.engine().RunUntilPredicate([&result] { return result.has_value(); },
                                     cluster.engine().Now() + std::chrono::seconds(30));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->first, proto::XrdErr::kNone);
  EXPECT_EQ(result->second, util::Crc32(content));
}

TEST(ClientFeaturesTest, ChecksumOfMissingFileFails) {
  SimCluster cluster(FastSpec(2));
  cluster.Start();
  auto& client = cluster.NewClient();
  std::optional<proto::XrdErr> err;
  client.Checksum("/store/ghost",
                  [&err](proto::XrdErr e, std::uint32_t) { err = e; });
  cluster.engine().RunUntilPredicate([&err] { return err.has_value(); },
                                     cluster.engine().Now() + std::chrono::seconds(30));
  EXPECT_EQ(err, proto::XrdErr::kNotFound);
}

TEST(ClientFeaturesTest, NamespaceDaemonListsClusterWideCreates) {
  ClusterSpec spec = FastSpec(4);
  spec.withCnsd = true;
  SimCluster cluster(spec);
  cluster.Start();
  ASSERT_NE(cluster.cns(), nullptr);

  auto& client = cluster.NewClient();
  ASSERT_TRUE(cluster.PutFile(client, "/store/a/one", "1").ok());
  ASSERT_TRUE(cluster.PutFile(client, "/store/a/two", "2").ok());
  ASSERT_TRUE(cluster.PutFile(client, "/store/b/three", "3").ok());
  cluster.engine().RunUntilIdle();

  auto names = cluster.ListAndWait(client, "/store/a/");
  ASSERT_TRUE(names.ok()) << names.error().message;
  EXPECT_EQ(names.value(), (std::vector<std::string>{"/store/a/one", "/store/a/two"}));

  // Unlink removes the name from the global view.
  ASSERT_TRUE(cluster.UnlinkAndWait(client, "/store/a/one").ok());
  cluster.engine().RunUntilIdle();
  names = cluster.ListAndWait(client, "/store/a/");
  ASSERT_TRUE(names.ok()) << names.error().message;
  EXPECT_EQ(names.value(), (std::vector<std::string>{"/store/a/two"}));
}

TEST(ClientFeaturesTest, ListWithoutCnsdFailsCleanly) {
  SimCluster cluster(FastSpec(2));  // no cnsd configured
  cluster.Start();
  auto& client = cluster.NewClient();
  const auto names = cluster.ListAndWait(client, "/store");
  ASSERT_FALSE(names.ok());
  EXPECT_EQ(names.code(), proto::XrdErr::kInvalid);
}

TEST(ClientFeaturesTest, LoadBasedSelectionPrefersIdleServer) {
  ClusterSpec spec = FastSpec(2);
  spec.selection = cms::SelectCriterion::kLoad;
  SimCluster cluster(spec);
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", "x");
  cluster.PlaceFile(1, "/store/f", "x");

  // Server 0 reports heavy load, server 1 is idle.
  cluster.server(0).ReportLoad(90, 1 << 30);
  cluster.server(1).ReportLoad(2, 1 << 30);
  cluster.engine().RunUntilIdle();

  auto& client = cluster.NewClient();
  // First access resolves via the fast response queue (first responder
  // wins); selection criteria apply to cached redirects.
  cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false);
  for (int i = 0; i < 4; ++i) {
    const auto open = cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false);
    ASSERT_EQ(open.err, proto::XrdErr::kNone);
    EXPECT_EQ(open.file.node, cluster.server(1).config().addr) << i;
  }
}

TEST(ClientFeaturesTest, PeriodicLoadReportsReachManager) {
  ClusterSpec spec = FastSpec(2);
  SimCluster cluster(spec);
  // Rebuild leaf 0's behaviour is fixed by spec; instead start reports
  // manually by invoking the public API and advancing virtual time.
  cluster.Start();
  cluster.server(0).ReportLoad(7, 1234);
  cluster.engine().RunUntilIdle();
  const auto slot = cluster.head().SlotOfAddr(cluster.server(0).config().addr);
  ASSERT_TRUE(slot.has_value());
  const auto info = cluster.head().membership().InfoOf(*slot);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->load, 7u);
  EXPECT_EQ(info->freeSpace, 1234u);
}

TEST(ClientFeaturesTest, SpaceSelectionPrefersEmptierServer) {
  ClusterSpec spec = FastSpec(2);
  spec.selection = cms::SelectCriterion::kSpace;
  SimCluster cluster(spec);
  cluster.Start();
  auto& client = cluster.NewClient();

  cluster.server(0).ReportLoad(0, 10);          // nearly full
  cluster.server(1).ReportLoad(0, 1 << 30);     // lots of space
  cluster.engine().RunUntilIdle();

  // New-file placement consults the same selection policy.
  ASSERT_TRUE(cluster.PutFile(client, "/store/new1", "d").ok());
  ASSERT_TRUE(cluster.PutFile(client, "/store/new2", "d").ok());
  EXPECT_EQ(cluster.storage(1).FileCount(), 2u);
  EXPECT_EQ(cluster.storage(0).FileCount(), 0u);
}

TEST(ClientFeaturesTest, RecoveryCapStopsInfiniteRefreshLoops) {
  SimCluster cluster(FastSpec(2));
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", "x");
  auto& client = cluster.NewClient();
  cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false);

  // The file silently disappears everywhere: every refresh re-discovers
  // nothing; the client must give up after maxRecoveries.
  (void)cluster.storage(0).Unlink("/store/f");
  const auto open = cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false,
                                        std::chrono::minutes(5));
  EXPECT_EQ(open.err, proto::XrdErr::kNotFound);
  EXPECT_LE(open.recoveries, 5);
}

// A head node that answers the first `staleCount` requests (opens, stats,
// unlinks and checksums alike) with kStale and then succeeds. Exercises
// the client's bounded, delayed stale-retry loop.
class StaleHead final : public net::MessageSink {
 public:
  StaleHead(SimFabric& fabric, net::NodeAddr addr, int staleCount)
      : fabric_(fabric), addr_(addr), staleCount_(staleCount) {}

  void OnMessage(net::NodeAddr from, proto::Message message) override {
    AnswerWalk(message, [&](const auto&, auto& resp) {
      if constexpr (std::is_same_v<std::decay_t<decltype(resp)>, proto::XrdOpenResp>) {
        ++opensSeen_;
        resp.fileHandle = 42;
      }
      if (++requestsSeen_ <= staleCount_) {
        resp.status = proto::XrdStatus::kError;
        resp.err = proto::XrdErr::kStale;
      } else {
        resp.status = proto::XrdStatus::kOk;
      }
      fabric_.Send(addr_, from, resp);
    });
  }

  int opensSeen() const { return opensSeen_; }
  int requestsSeen() const { return requestsSeen_; }

 private:
  SimFabric& fabric_;
  const net::NodeAddr addr_;
  const int staleCount_;
  int opensSeen_ = 0;
  int requestsSeen_ = 0;
};

TEST(ClientFeaturesTest, PersistentStaleGivesUpAfterCap) {
  // Regression: a head that answers kStale forever used to spin the
  // client in an unbounded immediate re-send loop. The retries are now
  // capped and spaced by a jittered delay.
  EventEngine engine;
  SimFabric fabric(engine);
  StaleHead head(fabric, /*addr=*/1, /*staleCount=*/1 << 20);
  fabric.Register(1, &head);

  client::ClientConfig cfg;
  cfg.addr = 100;
  cfg.head = 1;
  client::ScallaClient client(cfg, engine, fabric);
  fabric.Register(cfg.addr, &client);

  std::optional<client::OpenOutcome> out;
  client.Open("/store/f", AccessMode::kRead, false,
              [&out](const client::OpenOutcome& o) { out = o; });
  engine.RunUntilIdle();  // drains only because the retry loop is bounded

  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->err, proto::XrdErr::kStale);
  // Initial send plus one per allowed retry, then the client gives up.
  EXPECT_EQ(head.opensSeen(), client::kMaxStaleRetries + 1);
  // The delayed re-issues advanced virtual time (no hot spin).
  EXPECT_GE(out->elapsed, client::kStaleRetryDelay * client::kMaxStaleRetries);
}

TEST(ClientFeaturesTest, TransientStaleRecoversAfterRetry) {
  EventEngine engine;
  SimFabric fabric(engine);
  StaleHead head(fabric, /*addr=*/1, /*staleCount=*/2);
  fabric.Register(1, &head);

  client::ClientConfig cfg;
  cfg.addr = 100;
  cfg.head = 1;
  client::ScallaClient client(cfg, engine, fabric);
  fabric.Register(cfg.addr, &client);

  std::optional<client::OpenOutcome> out;
  client.Open("/store/f", AccessMode::kRead, false,
              [&out](const client::OpenOutcome& o) { out = o; });
  engine.RunUntilIdle();

  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->err, proto::XrdErr::kNone);
  EXPECT_EQ(out->file.handle, 42u);
  EXPECT_EQ(head.opensSeen(), 3);
}

// Runs one `kind` walk from a client at address 100 against the head at
// address 1 until it calls back or `limit` of virtual time passes.
struct WalkResult {
  std::optional<proto::XrdErr> err;  // nullopt: it never called back
  Duration elapsed{};
};
WalkResult RunWalk(EventEngine& engine, SimFabric& fabric, WalkKind kind,
                   Duration limit = std::chrono::seconds(120)) {
  client::ClientConfig cfg;
  cfg.addr = 100;
  cfg.head = 1;
  client::ScallaClient client(cfg, engine, fabric);
  fabric.Register(cfg.addr, &client);
  WalkResult out;
  const TimePoint start = engine.Now();
  StartWalk(client, kind, "/store/f", [&](proto::XrdErr err) {
    out.err = err;
    out.elapsed = engine.Now() - start;
  });
  engine.RunUntilPredicate([&out] { return out.err.has_value(); }, start + limit);
  fabric.Unregister(cfg.addr);
  return out;
}

TEST(ClientFeaturesTest, StaleRetriesBoundEveryWalk) {
  for (const WalkKind kind : kWalkKinds) {
    SCOPED_TRACE(WalkName(kind));
    EventEngine engine;
    SimFabric fabric(engine);
    StaleHead head(fabric, /*addr=*/1, /*staleCount=*/1 << 20);
    fabric.Register(1, &head);
    const WalkResult r = RunWalk(engine, fabric, kind);
    EXPECT_EQ(r.err, proto::XrdErr::kStale);
    EXPECT_EQ(head.requestsSeen(), client::kMaxStaleRetries + 1);
    EXPECT_GE(r.elapsed, client::kStaleRetryDelay * client::kMaxStaleRetries);
  }
}

TEST(ClientFeaturesTest, TransientStaleRecoversForEveryWalk) {
  for (const WalkKind kind : kWalkKinds) {
    SCOPED_TRACE(WalkName(kind));
    EventEngine engine;
    SimFabric fabric(engine);
    StaleHead head(fabric, /*addr=*/1, /*staleCount=*/2);
    fabric.Register(1, &head);
    EXPECT_EQ(RunWalk(engine, fabric, kind).err, proto::XrdErr::kNone);
    EXPECT_EQ(head.requestsSeen(), 3);
  }
}

// A head that redirects every walk to `target` and records the refresh
// requests it is sent.
class RedirectHead final : public net::MessageSink {
 public:
  RedirectHead(SimFabric& fabric, net::NodeAddr target) : fabric_(fabric), target_(target) {}

  void OnMessage(net::NodeAddr from, proto::Message message) override {
    AnswerWalk(message, [&](const auto& req, auto& resp) {
      ++requestsSeen_;
      if (req.refresh) {
        ++refreshes_;
        lastAvoid_ = req.avoidNode;
      }
      resp.status = proto::XrdStatus::kRedirect;
      resp.redirectNode = target_;
      fabric_.Send(1, from, resp);
    });
  }

  int requestsSeen() const { return requestsSeen_; }
  int refreshes() const { return refreshes_; }
  net::NodeAddr lastAvoid() const { return lastAvoid_; }

 private:
  SimFabric& fabric_;
  const net::NodeAddr target_;
  int requestsSeen_ = 0;
  int refreshes_ = 0;
  net::NodeAddr lastAvoid_ = 0;
};

// A node that takes every frame and never answers (a wedged process).
struct SilentNode final : net::MessageSink {
  void OnMessage(net::NodeAddr, proto::Message) override {}
};

TEST(ClientFeaturesTest, EveryWalkGivesUpOnADeadOrSilentTarget) {
  for (const bool dead : {true, false}) {
    for (const WalkKind kind : kWalkKinds) {
      SCOPED_TRACE(std::string(WalkName(kind)) + (dead ? " to a dead node" : " to a silent node"));
      EventEngine engine;
      SimFabric fabric(engine);
      RedirectHead head(fabric, /*target=*/77);
      fabric.Register(1, &head);
      SilentNode silent;
      // An unregistered address is a broken connection: the client hears
      // OnPeerDown. A registered silent node only runs out the timeout.
      if (!dead) fabric.Register(77, &silent);

      const WalkResult r = RunWalk(engine, fabric, kind);
      ASSERT_TRUE(r.err.has_value());
      EXPECT_EQ(*r.err, proto::XrdErr::kIo);
      // Every retry re-asks the head with a refresh naming the failed node.
      EXPECT_EQ(head.requestsSeen(), client::kMaxRecoveries + 1);
      EXPECT_EQ(head.refreshes(), client::kMaxRecoveries);
      EXPECT_EQ(head.lastAvoid(), 77u);
      if (!dead) {
        EXPECT_GE(r.elapsed, client::kAttemptTimeout * (client::kMaxRecoveries + 1));
      }
    }
  }
}

TEST(ClientFeaturesTest, DataRequestsToADeadNodeFailWithIo) {
  SimCluster cluster(FastSpec(2));
  cluster.Start();
  cluster.PlaceFile(0, "/store/d", "data");
  auto& client = cluster.NewClient();
  const auto open = cluster.OpenAndWait(client, "/store/d", AccessMode::kWrite, false);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);
  ASSERT_EQ(open.file.node, cluster.server(0).config().addr);

  // Read, ReadV, Write and Close each call back with kIo: `breakLink`
  // runs after they are sent.
  const auto expectIo = [&](const std::function<void()>& breakLink) {
    std::vector<std::optional<proto::XrdErr>> errs(4);
    client.Read(open.file, 0, 4, [&](proto::XrdErr e, std::string) { errs[0] = e; });
    client.ReadV(open.file, {{0, 4}},
                 [&](proto::XrdErr e, std::vector<std::string>) { errs[1] = e; });
    client.Write(open.file, 0, "w", [&](proto::XrdErr e, std::uint32_t) { errs[2] = e; });
    client.Close(open.file, [&](proto::XrdErr e) { errs[3] = e; });
    breakLink();
    cluster.engine().RunUntilPredicate(
        [&] { return std::all_of(errs.begin(), errs.end(), [](auto& e) { return e.has_value(); }); },
        cluster.engine().Now() + std::chrono::seconds(30));
    for (const auto& err : errs) EXPECT_EQ(err, proto::XrdErr::kIo);
  };
  // In flight at a wedged server whose connection then breaks (what the
  // TCP fabric reports as OnPeerDown)...
  cluster.WedgeServer(0);
  expectIo([&] { client.OnPeerDown(open.file.node); });
  // ...and sent to a server that has crashed.
  cluster.UnwedgeServer(0);
  cluster.CrashServer(0);
  expectIo([] {});
}

TEST(ClientFeaturesTest, StatRecoversFromAReplicaDeletedBehindTheHeadsBack) {
  constexpr std::size_t kEmptiedReplica = 0;
  SimCluster cluster(FastSpec(2));
  cluster.Start();
  cluster.PlaceFile(0, "/store/r", "replica");
  cluster.PlaceFile(1, "/store/r", "replica");
  auto& client = cluster.NewClient();
  const auto stat = [&] {
    std::optional<std::pair<proto::XrdErr, std::uint64_t>> result;
    client.Stat("/store/r", [&result](proto::XrdErr err, std::uint64_t size) {
      result = std::make_pair(err, size);
    });
    cluster.engine().RunUntilPredicate([&result] { return result.has_value(); },
                                       cluster.engine().Now() + std::chrono::seconds(30));
    return result;
  };
  // The head caches both replicas; then one of them, the server the next
  // cached redirect names, loses the file without telling the head.
  ASSERT_EQ(stat(), std::make_pair(proto::XrdErr::kNone, std::uint64_t{7}));
  cluster.engine().RunUntilIdle();
  ASSERT_TRUE(cluster.storage(kEmptiedReplica).Unlink("/store/r").ok());

  // The emptied server answers kNotFound; the client re-asks the head with
  // refresh + avoid, and the other replica answers.
  EXPECT_EQ(stat(), std::make_pair(proto::XrdErr::kNone, std::uint64_t{7}));
  EXPECT_EQ(client.SnapshotMetrics().Counter("client.recoveries"), 1u);
  EXPECT_EQ(cluster.head().SnapshotMetrics().Counter("node.refreshes"), 1u);
}

TEST(ClientFeaturesTest, OpenLatencyHistogramAccumulates) {
  SimCluster cluster(FastSpec(2));
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", "x");
  auto& client = cluster.NewClient();
  for (int i = 0; i < 5; ++i) {
    cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false);
  }
  EXPECT_EQ(client.OpenLatency().count(), 5u);
  EXPECT_GT(client.OpenLatency().MeanNanos(), 0.0);
}

}  // namespace
}  // namespace scalla::sim
