// Proxy cache tier (pcache) tests: block-cache eviction correctness,
// single-flight coalescing, and the ProxyCacheNode end-to-end — in the
// discrete-event simulator (warm hits bypass the cluster entirely,
// read-ahead, MSS no-restage) and over real loopback TCP (stats
// aggregation through the proxy, purge admin).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/sync_client.h"
#include "net/tcp_fabric.h"
#include "oss/mem_oss.h"
#include "pcache/block_cache.h"
#include "pcache/proxy_node.h"
#include "sched/thread_executor.h"
#include "sim/cluster.h"
#include "xrd/scalla_node.h"

namespace scalla {
namespace {

using cms::AccessMode;
using pcache::BlockCache;
using pcache::BlockCacheConfig;
using pcache::SingleFlight;

// ------------------------------------------------------------ BlockCache

BlockCacheConfig SmallCache() {
  BlockCacheConfig cfg;
  cfg.blockSize = 10;
  cfg.capacityBytes = 100;
  cfg.highWatermark = 0.9;  // evict above 90 bytes
  cfg.lowWatermark = 0.5;   // down to 50 bytes
  cfg.shards = 4;
  return cfg;
}

std::string Block(char fill) { return std::string(10, fill); }

TEST(BlockCacheTest, FillPastHighWatermarkEvictsDownToLow) {
  BlockCache cache(SmallCache());
  // 9 blocks = 90 bytes: at the high watermark, nothing evicted yet.
  for (std::uint64_t i = 0; i < 9; ++i) cache.Insert("/f", i, Block('a'));
  EXPECT_EQ(cache.UsedBytes(), 90u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);

  // The 10th crosses the watermark: the sweep runs down to <= 50 bytes.
  cache.Insert("/f", 9, Block('a'));
  EXPECT_LE(cache.UsedBytes(), 50u);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 5u);
  EXPECT_EQ(stats.blockCount, 5u);
  EXPECT_EQ(stats.usedBytes, cache.UsedBytes());
}

TEST(BlockCacheTest, EvictionVictimsAreStrictGlobalLru) {
  BlockCache cache(SmallCache());
  for (std::uint64_t i = 0; i < 9; ++i) cache.Insert("/f", i, Block('a'));
  // Touch 0..3: they become the freshest despite being inserted first.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(cache.Lookup("/f", i).has_value());

  cache.Insert("/f", 9, Block('a'));  // trigger the sweep
  // Untouched 4..8 were the five oldest; exactly they must be gone.
  for (std::uint64_t i = 4; i <= 8; ++i) {
    EXPECT_FALSE(cache.Contains("/f", i)) << "block " << i << " should be evicted";
  }
  for (const std::uint64_t i : {0u, 1u, 2u, 3u, 9u}) {
    EXPECT_TRUE(cache.Contains("/f", i)) << "block " << i << " should survive";
  }
}

TEST(BlockCacheTest, PinnedBlocksAreNeverEvicted) {
  BlockCache cache(SmallCache());
  for (std::uint64_t i = 0; i < 9; ++i) cache.Insert("/f", i, Block('a'));
  // Pin the two oldest; the sweep must skip them and take the next-oldest.
  ASSERT_TRUE(cache.Pin("/f", 0));
  ASSERT_TRUE(cache.Pin("/f", 1));

  cache.Insert("/f", 9, Block('a'));
  EXPECT_TRUE(cache.Contains("/f", 0));
  EXPECT_TRUE(cache.Contains("/f", 1));
  EXPECT_FALSE(cache.Contains("/f", 2));  // oldest unpinned went instead
  EXPECT_LE(cache.UsedBytes(), 50u);

  // A fully pinned cache over the watermark must give up, not spin.
  BlockCache tiny(SmallCache());
  for (std::uint64_t i = 0; i < 10; ++i) tiny.Insert("/g", i, Block('b'), /*pinned=*/true);
  EXPECT_EQ(tiny.UsedBytes(), 100u);  // nothing evictable
  EXPECT_EQ(tiny.GetStats().evictions, 0u);

  // Unpinning makes them evictable again on the next trigger.
  for (std::uint64_t i = 0; i < 10; ++i) tiny.Unpin("/g", i);
  tiny.Insert("/g", 10, Block('b'));
  EXPECT_LE(tiny.UsedBytes(), 50u);
}

TEST(BlockCacheTest, EvictionSinkReceivesGlobalLruVictimsInOrder) {
  // Regression pin for the candidate-cached sweep: victims must still be
  // the globally-oldest unpinned blocks by stamp — regardless of which
  // shard they hash to — and the sink must see them oldest-first with
  // their bytes intact (the tiered cache spills exactly these to disk).
  BlockCache cache(SmallCache());
  std::vector<pcache::EvictedBlock> spilled;
  cache.SetEvictionSink([&spilled](pcache::EvictedBlock b) {
    spilled.push_back(std::move(b));
  });

  for (std::uint64_t i = 0; i < 9; ++i) cache.Insert("/f", i, Block(static_cast<char>('0' + i)));
  // Refresh 2, 0, 4: their stamps now postdate every untouched block.
  for (const std::uint64_t i : {2u, 0u, 4u}) {
    ASSERT_TRUE(cache.Lookup("/f", i).has_value());
  }

  cache.Insert("/f", 9, Block('9'));  // 100 bytes: triggers the sweep
  // Globally oldest unpinned, in stamp order: 1, 3, 5, 6, 7.
  ASSERT_EQ(spilled.size(), 5u);
  const std::uint64_t wantOrder[] = {1, 3, 5, 6, 7};
  for (std::size_t v = 0; v < spilled.size(); ++v) {
    EXPECT_EQ(spilled[v].key.path, "/f");
    EXPECT_EQ(spilled[v].key.index, wantOrder[v]) << "victim " << v;
    EXPECT_EQ(spilled[v].data, Block(static_cast<char>('0' + wantOrder[v]))) << "victim " << v;
  }
  for (const std::uint64_t i : {0u, 2u, 4u, 8u, 9u}) {
    EXPECT_TRUE(cache.Contains("/f", i)) << "block " << i;
  }

  // Purge is not eviction: the sink must not see purged blocks.
  (void)cache.PurgeAll();
  EXPECT_EQ(spilled.size(), 5u);
}

TEST(BlockCacheTest, PurgeDropsOnlyThatPath) {
  BlockCache cache(SmallCache());
  cache.Insert("/a", 0, Block('a'));
  cache.Insert("/a", 1, Block('a'));
  cache.Insert("/b", 0, Block('b'));
  EXPECT_EQ(cache.Purge("/a"), 2u);
  EXPECT_FALSE(cache.Contains("/a", 0));
  EXPECT_TRUE(cache.Contains("/b", 0));
  EXPECT_EQ(cache.UsedBytes(), 10u);
  EXPECT_EQ(cache.PurgeAll(), 1u);
  EXPECT_EQ(cache.UsedBytes(), 0u);
}

TEST(BlockCacheTest, LookupCountsHitsAndMisses) {
  BlockCache cache(SmallCache());
  cache.Insert("/f", 0, Block('x'));
  EXPECT_TRUE(cache.Lookup("/f", 0).has_value());
  EXPECT_FALSE(cache.Lookup("/f", 1).has_value());
  EXPECT_FALSE(cache.Lookup("/g", 0).has_value());
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  // Contains is stats-neutral.
  EXPECT_TRUE(cache.Contains("/f", 0));
  EXPECT_EQ(cache.GetStats().hits, 1u);
}

// ----------------------------------------------------------- SingleFlight

TEST(SingleFlightTest, CoalescesConcurrentRequests) {
  SingleFlight flight;
  int calls = 0;
  proto::XrdErr seen = proto::XrdErr::kIo;
  auto waiter = [&](proto::XrdErr err, const std::string& data) {
    ++calls;
    seen = err;
    EXPECT_EQ(data, "payload");
  };
  EXPECT_TRUE(flight.Begin("/f", 0, waiter));    // first: owner
  EXPECT_FALSE(flight.Begin("/f", 0, waiter));   // second: piggybacks
  EXPECT_TRUE(flight.Begin("/f", 1, waiter));    // different block: owner
  EXPECT_EQ(flight.Coalesced(), 1u);
  EXPECT_EQ(flight.InFlight(), 2u);

  flight.Complete("/f", 0, proto::XrdErr::kNone, "payload");
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(seen, proto::XrdErr::kNone);
  EXPECT_EQ(flight.InFlight(), 1u);

  // TryOwn claims silently (read-ahead) and does not inflate coalescing.
  EXPECT_FALSE(flight.TryOwn("/f", 1));
  EXPECT_TRUE(flight.TryOwn("/f", 2));
  EXPECT_EQ(flight.Coalesced(), 1u);
}

// --------------------------------------------- multithreaded (TSan) stress

TEST(PcacheConcurrencyTest, CacheAndSingleFlightSurviveThreads) {
  BlockCacheConfig cfg;
  cfg.blockSize = 64;
  cfg.capacityBytes = 64 * 64;  // tight: constant eviction pressure
  cfg.highWatermark = 0.9;
  cfg.lowWatermark = 0.5;
  cfg.shards = 4;
  BlockCache cache(cfg);
  SingleFlight flight;

  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string path = "/t" + std::to_string(t % 3);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t idx = static_cast<std::uint64_t>((t * 7 + i) % 40);
        if (!cache.Lookup(path, idx).has_value()) {
          const bool owner = flight.Begin(
              path, idx,
              [&delivered](proto::XrdErr, const std::string&) { ++delivered; });
          if (owner) {
            cache.Insert(path, idx, std::string(64, 'x'),
                         /*pinned=*/(i % 5 == 0));
            if (i % 5 == 0) cache.Unpin(path, idx);
            flight.Complete(path, idx, proto::XrdErr::kNone, std::string(64, 'x'));
          }
        }
        if (i % 97 == 0) (void)cache.Purge(path);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(flight.InFlight(), 0u);
  EXPECT_GT(delivered.load(), 0u);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.usedBytes, cache.UsedBytes());
  EXPECT_LE(stats.usedBytes, cfg.capacityBytes);
}

// ------------------------------------------------------ sim: end-to-end

sim::ClusterSpec ProxySpec(int servers = 4) {
  sim::ClusterSpec spec;
  spec.servers = servers;
  spec.cms.deadline = std::chrono::milliseconds(500);
  spec.withProxy = true;
  spec.proxyCache.blockSize = 64;
  spec.proxyCache.capacityBytes = 64 * 1024;
  return spec;
}

std::uint64_t ProxyCounter(sim::SimCluster& cluster, const std::string& name) {
  return cluster.proxy()->metrics().GetCounter(name).Value();
}

TEST(ProxySimTest, WarmHitsBypassClusterEntirely) {
  sim::SimCluster cluster(ProxySpec());
  cluster.Start();
  const std::string payload(200, 'p');  // 4 blocks, last one short
  cluster.PlaceFile(1, "/store/f", payload);

  auto& c = cluster.NewProxyClient();
  const auto cold = cluster.ReadAll(c, "/store/f");
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold.value(), payload);

  const std::uint64_t fetchesAfterCold = ProxyCounter(cluster, "pcache.origin_fetches");
  const std::uint64_t opensAfterCold = ProxyCounter(cluster, "pcache.origin_opens");
  EXPECT_GT(fetchesAfterCold, 0u);
  EXPECT_EQ(opensAfterCold, 1u);
  std::uint64_t leafReadsAfterCold = 0;
  for (std::size_t i = 0; i < cluster.ServerCount(); ++i) {
    leafReadsAfterCold += cluster.server(i).SnapshotMetrics().Counter("node.reads");
  }

  // Warm pass: same path, fresh client handle. Every byte must come from
  // the proxy's cache — no origin open, no origin fetch, no leaf read.
  const auto warm = cluster.ReadAll(c, "/store/f");
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm.value(), payload);

  EXPECT_EQ(ProxyCounter(cluster, "pcache.origin_fetches"), fetchesAfterCold);
  EXPECT_EQ(ProxyCounter(cluster, "pcache.origin_opens"), opensAfterCold);
  EXPECT_GE(ProxyCounter(cluster, "pcache.opens_local"), 1u);
  std::uint64_t leafReadsAfterWarm = 0;
  for (std::size_t i = 0; i < cluster.ServerCount(); ++i) {
    leafReadsAfterWarm += cluster.server(i).SnapshotMetrics().Counter("node.reads");
  }
  EXPECT_EQ(leafReadsAfterWarm, leafReadsAfterCold);
  EXPECT_GT(cluster.proxy()->cache().GetStats().hits, 0u);
}

TEST(ProxySimTest, WarmOpenSkipsResolver) {
  sim::SimCluster cluster(ProxySpec());
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", std::string(64, 'x'));

  auto& c = cluster.NewProxyClient();
  const auto cold = cluster.OpenAndWait(c, "/store/f", AccessMode::kRead, false);
  ASSERT_EQ(cold.err, proto::XrdErr::kNone);

  const auto warm = cluster.OpenAndWait(c, "/store/f", AccessMode::kRead, false);
  ASSERT_EQ(warm.err, proto::XrdErr::kNone);
  EXPECT_EQ(warm.redirects, 0);
  EXPECT_EQ(warm.waits, 0);
  EXPECT_EQ(ProxyCounter(cluster, "pcache.origin_opens"), 1u);
}

TEST(ProxySimTest, ConcurrentMissesCoalesceToOneFetch) {
  sim::SimCluster cluster(ProxySpec());
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", std::string(64, 'z'));

  auto& c = cluster.NewProxyClient();
  const auto open = cluster.OpenAndWait(c, "/store/f", AccessMode::kRead, false);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);

  // Two reads of the same (uncached) block issued back to back, before the
  // engine runs: the second must piggyback on the first's origin fetch.
  std::string d1, d2;
  int done = 0;
  c.Read(open.file, 0, 64, [&](proto::XrdErr err, std::string data) {
    EXPECT_EQ(err, proto::XrdErr::kNone);
    d1 = std::move(data);
    ++done;
  });
  c.Read(open.file, 0, 64, [&](proto::XrdErr err, std::string data) {
    EXPECT_EQ(err, proto::XrdErr::kNone);
    d2 = std::move(data);
    ++done;
  });
  cluster.engine().RunUntilIdle();
  ASSERT_EQ(done, 2);
  EXPECT_EQ(d1, std::string(64, 'z'));
  EXPECT_EQ(d2, std::string(64, 'z'));
  EXPECT_EQ(ProxyCounter(cluster, "pcache.origin_fetches"), 1u);
  EXPECT_EQ(cluster.proxy()->singleFlight().Coalesced(), 1u);
}

TEST(ProxySimTest, ReadAheadPrefetchesFollowingBlocks) {
  sim::ClusterSpec spec = ProxySpec();
  spec.proxyReadAhead = 2;
  sim::SimCluster cluster(spec);
  cluster.Start();
  cluster.PlaceFile(0, "/store/seq", std::string(64 * 4, 's'));  // 4 full blocks

  auto& c = cluster.NewProxyClient();
  const auto open = cluster.OpenAndWait(c, "/store/seq", AccessMode::kRead, false);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);

  std::optional<proto::XrdErr> err;
  c.Read(open.file, 0, 64, [&](proto::XrdErr e, std::string) { err = e; });
  cluster.engine().RunUntilIdle();
  ASSERT_EQ(err, proto::XrdErr::kNone);

  // The demand miss on block 0 pulled blocks 1 and 2 behind it.
  EXPECT_TRUE(cluster.proxy()->cache().Contains("/store/seq", 1));
  EXPECT_TRUE(cluster.proxy()->cache().Contains("/store/seq", 2));
  EXPECT_FALSE(cluster.proxy()->cache().Contains("/store/seq", 3));
  EXPECT_EQ(ProxyCounter(cluster, "pcache.readaheads"), 2u);

  // Reading the prefetched blocks is pure hit: fetch counter frozen at 3.
  std::optional<proto::XrdErr> err2;
  c.Read(open.file, 64, 128, [&](proto::XrdErr e, std::string) { err2 = e; });
  cluster.engine().RunUntilIdle();
  ASSERT_EQ(err2, proto::XrdErr::kNone);
  EXPECT_EQ(ProxyCounter(cluster, "pcache.origin_fetches"), 3u);
}

TEST(ProxySimTest, StagedMssFileServedFromCacheWithoutRestage) {
  sim::ClusterSpec spec = ProxySpec(2);
  spec.withMss = true;
  spec.mss.stageDelay = std::chrono::seconds(30);
  sim::SimCluster cluster(spec);
  cluster.Start();
  cluster.mssStorage(0)->PutInMss("/store/tape", 256);

  auto& c = cluster.NewProxyClient();
  // Cold read: the proxy's embedded client absorbs the staging kWait loop.
  const auto cold = cluster.ReadAll(c, "/store/tape");
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold.value().size(), 256u);
  EXPECT_EQ(cluster.server(0).SnapshotMetrics().Counter("node.stages_started"), 1u);
  EXPECT_EQ(cluster.mssStorage(0)->StagingCount(), 0u);

  const std::uint64_t fetches = ProxyCounter(cluster, "pcache.origin_fetches");
  // Warm read: straight from cache — no re-stage, no origin traffic.
  const auto warm = cluster.ReadAll(c, "/store/tape");
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm.value(), cold.value());
  EXPECT_EQ(cluster.server(0).SnapshotMetrics().Counter("node.stages_started"), 1u);
  EXPECT_EQ(ProxyCounter(cluster, "pcache.origin_fetches"), fetches);
}

TEST(ProxySimTest, StatsQueryMergesClusterAndProxyView) {
  sim::SimCluster cluster(ProxySpec());
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", std::string(64, 'q'));

  auto& c = cluster.NewProxyClient();
  ASSERT_TRUE(cluster.ReadAll(c, "/store/f").ok());
  ASSERT_TRUE(cluster.ReadAll(c, "/store/f").ok());  // generate hits

  const auto stats = cluster.ClusterStats(&c);
  ASSERT_TRUE(stats.ok);
  // 4 servers + 1 manager + the proxy itself.
  EXPECT_EQ(stats.nodeCount, 6u);
  EXPECT_GT(stats.snapshot.Counter("pcache.hits"), 0u);
  EXPECT_GT(stats.snapshot.Counter("pcache.origin_fetches"), 0u);
  EXPECT_GT(stats.snapshot.Counter("node.opens_served"), 0u);  // cluster side
  EXPECT_EQ(stats.snapshot.Counter("node.count"), 6u);
}

TEST(ProxySimTest, WritesAreRefused) {
  sim::SimCluster cluster(ProxySpec());
  cluster.Start();
  auto& c = cluster.NewProxyClient();
  const auto open = cluster.OpenAndWait(c, "/store/new", AccessMode::kWrite, true);
  EXPECT_EQ(open.err, proto::XrdErr::kInvalid);
}

TEST(ProxySimTest, PurgeForcesRefetch) {
  sim::SimCluster cluster(ProxySpec());
  cluster.Start();
  const std::string payload(100, 'r');
  cluster.PlaceFile(0, "/store/f", payload);

  auto& c = cluster.NewProxyClient();
  ASSERT_TRUE(cluster.ReadAll(c, "/store/f").ok());
  const std::uint64_t fetches = ProxyCounter(cluster, "pcache.origin_fetches");

  std::optional<proto::PcacheAdminResp> admin;
  c.CacheAdmin(proto::PcacheAdminOp::kPurgeAll, "",
               [&](proto::XrdErr err, proto::PcacheAdminResp resp) {
                 EXPECT_EQ(err, proto::XrdErr::kNone);
                 admin = std::move(resp);
               });
  cluster.engine().RunUntilIdle();
  ASSERT_TRUE(admin.has_value());
  EXPECT_GT(admin->blocksPurged, 0u);
  EXPECT_EQ(admin->usedBytes, 0u);

  const auto again = cluster.ReadAll(c, "/store/f");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), payload);
  EXPECT_GT(ProxyCounter(cluster, "pcache.origin_fetches"), fetches);
}

TEST(ProxySimTest, DiskTierAbsorbsColdReadsAndPromotesOnReuse) {
  // Proxy with both tiers: first-touch blocks land on DISK (ghost
  // admission), a warm read is served from disk without origin traffic
  // and promotes to DRAM, and the admin stat reports per-tier occupancy.
  sim::ClusterSpec spec = ProxySpec();
  spec.proxyDiskCapacity = 64 * 1024;
  sim::SimCluster cluster(spec);
  cluster.Start();
  const std::string payload(64 * 16, 't');  // 16 full blocks
  cluster.PlaceFile(0, "/store/tier", payload);

  auto& c = cluster.NewProxyClient();
  const auto cold = cluster.ReadAll(c, "/store/tier");
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  ASSERT_EQ(cold.value(), payload);
  const std::uint64_t fetches = ProxyCounter(cluster, "pcache.origin_fetches");

  // Every cold block was admitted to the disk tier, none to DRAM.
  cluster.RunFor(std::chrono::milliseconds(10));  // drain tier ops
  auto stats = cluster.proxy()->cache().GetTieredStats();
  EXPECT_EQ(stats.diskBlockCount, 16u);
  EXPECT_EQ(stats.dram.blockCount, 0u);
  EXPECT_GE(stats.admitsDisk, 16u);

  // Warm read: all bytes from the disk tier, zero new origin fetches.
  const auto warm = cluster.ReadAll(c, "/store/tier");
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm.value(), payload);
  EXPECT_EQ(ProxyCounter(cluster, "pcache.origin_fetches"), fetches);
  EXPECT_EQ(ProxyCounter(cluster, "pcache.bytes_from_disk"), payload.size());

  // The disk hits promoted every block to DRAM (async, on the engine).
  cluster.RunFor(std::chrono::milliseconds(10));
  EXPECT_EQ(cluster.proxy()->cache().PendingTierOps(), 0u);
  stats = cluster.proxy()->cache().GetTieredStats();
  EXPECT_EQ(stats.promotions, 16u);
  EXPECT_EQ(stats.dram.blockCount, 16u);
  EXPECT_EQ(stats.diskBlockCount, 0u);

  // Third read: DRAM serves everything; the disk byte counter freezes.
  const auto hot = cluster.ReadAll(c, "/store/tier");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(ProxyCounter(cluster, "pcache.origin_fetches"), fetches);
  EXPECT_EQ(ProxyCounter(cluster, "pcache.bytes_from_disk"), payload.size());

  // Per-tier counters flow into the tree-aggregated StatsQuery.
  const auto cs = cluster.ClusterStats(&c);
  ASSERT_TRUE(cs.ok);
  EXPECT_GE(cs.snapshot.Counter("pcache.disk.hits"), 16u);
  EXPECT_EQ(cs.snapshot.Counter("pcache.promotions"), 16u);
  EXPECT_GE(cs.snapshot.Counter("pcache.admits_disk"), 16u);

  // The admin stat breaks occupancy down by tier.
  std::optional<proto::PcacheAdminResp> admin;
  c.CacheAdmin(proto::PcacheAdminOp::kStat, "",
               [&](proto::XrdErr err, proto::PcacheAdminResp resp) {
                 EXPECT_EQ(err, proto::XrdErr::kNone);
                 admin = std::move(resp);
               });
  cluster.engine().RunUntilIdle();
  ASSERT_TRUE(admin.has_value());
  EXPECT_EQ(admin->dramBlockCount, 16u);
  EXPECT_EQ(admin->diskBlockCount, 0u);
  EXPECT_EQ(admin->usedBytes, payload.size());
}

TEST(ProxySimTest, AdminPurgeSpansBothTiers) {
  sim::ClusterSpec spec = ProxySpec();
  spec.proxyDiskCapacity = 64 * 1024;
  sim::SimCluster cluster(spec);
  cluster.Start();
  cluster.PlaceFile(0, "/store/cold", std::string(64 * 4, 'c'));
  cluster.PlaceFile(0, "/store/warm", std::string(64 * 4, 'w'));

  auto& c = cluster.NewProxyClient();
  // /store/cold read once: its 4 blocks live on disk. /store/warm read
  // twice: its 4 blocks get promoted to DRAM.
  ASSERT_TRUE(cluster.ReadAll(c, "/store/cold").ok());
  ASSERT_TRUE(cluster.ReadAll(c, "/store/warm").ok());
  ASSERT_TRUE(cluster.ReadAll(c, "/store/warm").ok());
  cluster.RunFor(std::chrono::milliseconds(10));

  const auto stats = cluster.proxy()->cache().GetTieredStats();
  ASSERT_EQ(stats.diskBlockCount, 4u);  // cold file
  ASSERT_EQ(stats.dram.blockCount, 4u);  // warm file, promoted

  // Purging the disk-resident path must reach through to the disk tier.
  std::optional<proto::PcacheAdminResp> purged;
  c.CacheAdmin(proto::PcacheAdminOp::kPurgePath, "/store/cold",
               [&](proto::XrdErr err, proto::PcacheAdminResp resp) {
                 EXPECT_EQ(err, proto::XrdErr::kNone);
                 purged = std::move(resp);
               });
  cluster.engine().RunUntilIdle();
  ASSERT_TRUE(purged.has_value());
  EXPECT_EQ(purged->blocksPurged, 4u);
  EXPECT_EQ(purged->diskBlockCount, 0u);
  EXPECT_EQ(purged->dramBlockCount, 4u);  // the warm file is untouched

  // And a full purge empties both tiers.
  std::optional<proto::PcacheAdminResp> all;
  c.CacheAdmin(proto::PcacheAdminOp::kPurgeAll, "",
               [&](proto::XrdErr err, proto::PcacheAdminResp resp) {
                 EXPECT_EQ(err, proto::XrdErr::kNone);
                 all = std::move(resp);
               });
  cluster.engine().RunUntilIdle();
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->blocksPurged, 4u);
  EXPECT_EQ(all->usedBytes, 0u);
  EXPECT_EQ(all->blockCount, 0u);
}

TEST(ProxySimTest, NonProxyNodeRefusesCacheAdmin) {
  sim::SimCluster cluster(ProxySpec());
  cluster.Start();
  auto& direct = cluster.NewClient();  // head = the manager, not the proxy
  std::optional<proto::XrdErr> err;
  direct.CacheAdmin(proto::PcacheAdminOp::kPurgeAll, "",
                    [&](proto::XrdErr e, proto::PcacheAdminResp) { err = e; });
  cluster.engine().RunUntilIdle();
  EXPECT_EQ(err, proto::XrdErr::kInvalid);
}

// ------------------------------------------------------- TCP: end-to-end

std::uint16_t NextBasePort() {
  static std::atomic<std::uint16_t> next{27000};
  return next.fetch_add(200);
}

class ProxyTcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_unique<net::TcpFabric>(NextBasePort());

    cms::CmsConfig cms;
    cms.deadline = std::chrono::milliseconds(500);
    cms.sweepPeriod = std::chrono::milliseconds(50);

    xrd::NodeConfig mgr;
    mgr.role = xrd::NodeRole::kManager;
    mgr.name = "manager";
    mgr.addr = 1;
    mgr.exports = {"/store"};
    mgr.cms = cms;
    managerExec_ = std::make_unique<sched::ThreadExecutor>();
    manager_ = std::make_unique<xrd::ScallaNode>(mgr, *managerExec_, *fabric_, nullptr);
    ASSERT_TRUE(fabric_->Register(1, manager_.get(), managerExec_.get()));

    for (int i = 0; i < 2; ++i) {
      xrd::NodeConfig leaf;
      leaf.role = xrd::NodeRole::kServer;
      leaf.name = "server" + std::to_string(i);
      leaf.addr = static_cast<net::NodeAddr>(10 + i);
      leaf.parent = 1;
      leaf.exports = {"/store"};
      leaf.cms = cms;
      leaf.loginRetry = std::chrono::milliseconds(100);
      execs_.push_back(std::make_unique<sched::ThreadExecutor>());
      storages_.push_back(std::make_unique<oss::MemOss>(execs_.back()->clock()));
      nodes_.push_back(std::make_unique<xrd::ScallaNode>(leaf, *execs_.back(), *fabric_,
                                                         storages_.back().get()));
      ASSERT_TRUE(fabric_->Register(leaf.addr, nodes_.back().get(), execs_.back().get()));
    }

    pcache::ProxyCacheConfig pcfg;
    pcfg.addr = 50;
    pcfg.origin.head = 1;
    pcfg.cache.blockSize = 64;
    pcfg.cache.capacityBytes = 64 * 1024;
    pcfg.readAhead = 0;
    proxyExec_ = std::make_unique<sched::ThreadExecutor>();
    proxy_ = std::make_unique<pcache::ProxyCacheNode>(pcfg, *proxyExec_, *fabric_);
    ASSERT_TRUE(fabric_->Register(50, proxy_.get(), proxyExec_.get()));

    manager_->Start();
    for (auto& node : nodes_) node->Start();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (manager_->membership().MemberCount() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(manager_->membership().MemberCount(), 2u);

    client::ClientConfig cc;
    cc.addr = 100;
    cc.head = 50;  // the proxy IS this client's head
    clientExec_ = std::make_unique<sched::ThreadExecutor>();
    client_ = std::make_unique<client::SyncClient>(cc, *clientExec_, *fabric_,
                                                   std::chrono::seconds(20));
    ASSERT_TRUE(fabric_->Register(100, &client_->async(), clientExec_.get()));
  }

  void TearDown() override {
    if (manager_) manager_->Stop();
    for (auto& node : nodes_) node->Stop();
    fabric_.reset();
  }

  std::unique_ptr<net::TcpFabric> fabric_;
  std::unique_ptr<sched::ThreadExecutor> managerExec_;
  std::unique_ptr<xrd::ScallaNode> manager_;
  std::vector<std::unique_ptr<sched::ThreadExecutor>> execs_;
  std::vector<std::unique_ptr<oss::MemOss>> storages_;
  std::vector<std::unique_ptr<xrd::ScallaNode>> nodes_;
  std::unique_ptr<sched::ThreadExecutor> proxyExec_;
  std::unique_ptr<pcache::ProxyCacheNode> proxy_;
  std::unique_ptr<sched::ThreadExecutor> clientExec_;
  std::unique_ptr<client::SyncClient> client_;
};

TEST_F(ProxyTcpTest, ColdThenWarmReadsThroughProxy) {
  const std::string payload(200, 'w');
  storages_[0]->Put("/store/f", payload);

  const auto cold = client_->GetFile("/store/f");
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold.value(), payload);
  const std::uint64_t fetches =
      proxy_->metrics().GetCounter("pcache.origin_fetches").Value();
  EXPECT_GT(fetches, 0u);

  const auto warm = client_->GetFile("/store/f");
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm.value(), payload);
  EXPECT_EQ(proxy_->metrics().GetCounter("pcache.origin_fetches").Value(), fetches);
  EXPECT_GT(proxy_->cache().GetStats().hits, 0u);
}

TEST_F(ProxyTcpTest, StatsThroughProxyReportPcacheCounters) {
  storages_[1]->Put("/store/g", std::string(150, 'g'));
  ASSERT_TRUE(client_->GetFile("/store/g").ok());
  ASSERT_TRUE(client_->GetFile("/store/g").ok());  // warm: generate hits

  const auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  // manager + 2 servers + proxy.
  EXPECT_EQ(stats.value().nodeCount, 4u);
  EXPECT_GT(stats.value().snapshot.Counter("pcache.hits"), 0u);
  EXPECT_GT(stats.value().snapshot.Counter("pcache.inserts"), 0u);
  EXPECT_GT(stats.value().snapshot.Counter("pcache.bytes_from_cache"), 0u);
  EXPECT_GT(stats.value().snapshot.Counter("node.opens_served"), 0u);
}

TEST_F(ProxyTcpTest, PurgeAdminAndMistargetedPurge) {
  storages_[0]->Put("/store/h", std::string(100, 'h'));
  ASSERT_TRUE(client_->GetFile("/store/h").ok());

  const auto purged = client_->CacheAdmin(proto::PcacheAdminOp::kPurgePath, "/store/h");
  ASSERT_TRUE(purged.ok()) << purged.error().message;
  EXPECT_GT(purged.value().blocksPurged, 0u);
  EXPECT_EQ(purged.value().blockCount, 0u);

  // The same frame at a regular manager fails loudly with kInvalid.
  client::ClientConfig cc;
  cc.addr = 101;
  cc.head = 1;
  sched::ThreadExecutor exec;
  client::SyncClient direct(cc, exec, *fabric_, std::chrono::seconds(10));
  ASSERT_TRUE(fabric_->Register(101, &direct.async(), &exec));
  const auto refused = direct.CacheAdmin(proto::PcacheAdminOp::kPurgeAll);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, proto::XrdErr::kInvalid);
  fabric_->Unregister(101);  // `direct` dies before the fixture's fabric
}

}  // namespace
}  // namespace scalla
