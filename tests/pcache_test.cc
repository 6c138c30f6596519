// Proxy cache tier (pcache) tests: the DRAM tier's eviction correctness
// (on a tiered cache with the disk tier off), spill order into the disk
// tier, single-flight coalescing, the tiered cache's per-file lifecycle
// map, config validation, and the ProxyCacheNode end-to-end — in the
// discrete-event simulator (warm hits bypass the cluster entirely,
// read-ahead, MSS no-restage) and over real loopback TCP (stats
// aggregation through the proxy, purge admin).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>

#include "client/sync_client.h"
#include "oss/mem_oss.h"
#include "pcache/proxy_node.h"
#include "pcache/single_flight.h"
#include "pcache/tiered_cache.h"
#include "sim/cluster.h"
#include "sim/tcp_cluster.h"
#include "tcp_test_support.h"

namespace scalla {
namespace {

using cms::AccessMode;
using pcache::SingleFlight;
using pcache::TieredBlockCache;
using pcache::TieredCacheConfig;

// ------------------------------------------------------------- DRAM tier

// Ten 10-byte slots; `diskCapacity` 0 leaves the disk tier off, so every
// insert goes to DRAM and a DRAM eviction is a loss.
TieredCacheConfig SmallCache(std::uint64_t diskCapacity = 0) {
  TieredCacheConfig cfg;
  cfg.dram.blockSize = 10;
  cfg.dram.capacityBytes = 100;
  cfg.dram.highWatermark = 0.9;  // evict above 90 bytes
  cfg.dram.lowWatermark = 0.5;   // down to 50 bytes
  cfg.diskCapacityBytes = diskCapacity;
  return cfg;
}

std::string Block(char fill) { return std::string(10, fill); }

class DramTierTest : public ::testing::Test {
 protected:
  util::ManualClock clock_;
  TieredBlockCache cache_{SmallCache(), nullptr, clock_};
};

TEST_F(DramTierTest, FillPastHighWatermarkEvictsDownToLow) {
  TieredBlockCache& cache = cache_;
  // 9 blocks = 90 bytes: at the high watermark, nothing evicted yet.
  for (std::uint64_t i = 0; i < 9; ++i) cache.Insert("/f", i, Block('a'));
  EXPECT_EQ(cache.UsedBytes(), 90u);
  EXPECT_EQ(cache.GetTieredStats().dram.evictions, 0u);

  // The 10th crosses the watermark: the sweep runs down to <= 50 bytes.
  cache.Insert("/f", 9, Block('a'));
  EXPECT_LE(cache.UsedBytes(), 50u);
  const auto stats = cache.GetTieredStats().dram;
  EXPECT_EQ(stats.evictions, 5u);
  EXPECT_EQ(stats.blockCount, 5u);
  EXPECT_EQ(stats.usedBytes, cache.UsedBytes());
}

TEST_F(DramTierTest, EvictionVictimsAreStrictGlobalLru) {
  TieredBlockCache& cache = cache_;
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

TEST_F(DramTierTest, PinnedBlocksAreNeverEvicted) {
  TieredBlockCache& cache = cache_;
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
  TieredBlockCache tiny(SmallCache(), nullptr, clock_);
  for (std::uint64_t i = 0; i < 10; ++i) tiny.Insert("/g", i, Block('b'), /*pinned=*/true);
  EXPECT_EQ(tiny.UsedBytes(), 100u);  // nothing evictable
  EXPECT_EQ(tiny.GetTieredStats().dram.evictions, 0u);

  // Unpinning makes them evictable again on the next trigger.
  for (std::uint64_t i = 0; i < 10; ++i) tiny.Unpin("/g", i);
  tiny.Insert("/g", 10, Block('b'));
  EXPECT_LE(tiny.UsedBytes(), 50u);
}

// A MemOss that logs every write it accepts, in order.
class RecordingOss final : public oss::MemOss {
 public:
  using MemOss::MemOss;

  Result<void> Write(const std::string& path, std::uint64_t offset,
                     std::string_view data) override {
    writes.emplace_back(path, std::string(data));
    return MemOss::Write(path, offset, data);
  }

  std::vector<std::pair<std::string, std::string>> writes;  // path, bytes
};

TEST_F(DramTierTest, SpillsReceiveGlobalLruVictimsInOrder) {
  // Victims must be the least recently used unpinned blocks, and the disk
  // tier must receive them oldest-first with their bytes intact.
  RecordingOss disk(clock_);
  TieredBlockCache cache(SmallCache(/*diskCapacity=*/1000), &disk, clock_);

  // A first insert lands on disk; the second proves reuse and earns DRAM.
  for (std::uint64_t i = 0; i < 9; ++i) {
    for (int pass = 0; pass < 2; ++pass) {
      cache.Insert("/f", i, Block(static_cast<char>('0' + i)));
    }
  }
  // Refresh 2, 0, 4: they are now fresher than every untouched block.
  for (const std::uint64_t i : {2u, 0u, 4u}) {
    ASSERT_EQ(cache.LookupDetailed("/f", i).tier, pcache::CacheTier::kDram);
  }
  cache.Insert("/f", 9, Block('9'));  // first touch: to disk
  disk.writes.clear();

  cache.Insert("/f", 9, Block('9'));  // DRAM reaches 100 bytes: the sweep
  // Oldest unpinned, in recency order: 1, 3, 5, 6, 7.
  ASSERT_EQ(disk.writes.size(), 5u);
  const std::uint64_t wantOrder[] = {1, 3, 5, 6, 7};
  for (std::size_t v = 0; v < disk.writes.size(); ++v) {
    EXPECT_EQ(disk.writes[v].first, "/f#b" + std::to_string(wantOrder[v])) << "victim " << v;
    EXPECT_EQ(disk.writes[v].second, Block(static_cast<char>('0' + wantOrder[v])))
        << "victim " << v;
  }
  EXPECT_EQ(cache.GetTieredStats().spills, 5u);
  for (const std::uint64_t i : {0u, 2u, 4u, 8u, 9u}) {
    EXPECT_TRUE(cache.Contains("/f", i)) << "block " << i;
  }

  // Purge is not eviction: it spills nothing.
  (void)cache.PurgeAll();
  EXPECT_EQ(disk.writes.size(), 5u);
}

TEST_F(DramTierTest, PurgeDropsOnlyThatPath) {
  TieredBlockCache& cache = cache_;
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

TEST_F(DramTierTest, LookupCountsHitsAndMisses) {
  TieredBlockCache& cache = cache_;
  cache.Insert("/f", 0, Block('x'));
  EXPECT_TRUE(cache.Lookup("/f", 0).has_value());
  EXPECT_FALSE(cache.Lookup("/f", 1).has_value());
  EXPECT_FALSE(cache.Lookup("/g", 0).has_value());
  const auto stats = cache.GetTieredStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  // Contains is stats-neutral.
  EXPECT_TRUE(cache.Contains("/f", 0));
  EXPECT_EQ(cache.GetTieredStats().hits, 1u);
}

// A config no cache can run with stops at construction with the
// validation message, as an invalid fabric option does: a zero block size
// would otherwise divide by zero in the proxy's first read.
TEST(TieredCacheConfigDeathTest, InvalidConfigAbortsAtConstruction) {
  util::ManualClock clock;
  TieredCacheConfig zeroBlock = SmallCache();
  zeroBlock.dram.blockSize = 0;
  EXPECT_DEATH({ TieredBlockCache cache(zeroBlock, nullptr, clock); },
               "pcache.blocksize must be positive");
  TieredCacheConfig inverted = SmallCache();
  inverted.dram.highWatermark = 0.5;
  inverted.dram.lowWatermark = 0.9;
  EXPECT_DEATH({ TieredBlockCache cache(inverted, nullptr, clock); },
               "pcache watermarks need 0 < lowater <= hiwater <= 1");
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
  TieredCacheConfig cfg;
  cfg.dram.blockSize = 64;
  cfg.dram.capacityBytes = 64 * 64;  // tight: constant eviction pressure
  cfg.dram.highWatermark = 0.9;
  cfg.dram.lowWatermark = 0.5;
  util::SystemClock clock;
  TieredBlockCache cache(cfg, nullptr, clock);  // DRAM only
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
  const auto stats = cache.GetTieredStats().dram;
  EXPECT_EQ(stats.usedBytes, cache.UsedBytes());
  EXPECT_LE(stats.usedBytes, cfg.dram.capacityBytes);
}

// ------------------------------------------- TieredBlockCache lifecycle

// The proxy's pattern for 200,000 distinct one-block files: a lookup
// misses, then the fetched block is inserted. A file keeps its lifecycle
// entry only while one of its blocks is resident, so the map stays within
// the cache's size instead of growing with every path ever looked up.
TEST(TieredCacheLifecycleTest, EntriesLeaveWithTheFilesLastBlock) {
  for (const std::uint64_t diskCapacity : {std::uint64_t{0}, std::uint64_t{4} << 20}) {
    SCOPED_TRACE(diskCapacity == 0 ? "DRAM only" : "with a disk tier");
    TieredCacheConfig cfg;
    cfg.dram.blockSize = 4096;
    cfg.dram.capacityBytes = 1 << 20;
    cfg.diskCapacityBytes = diskCapacity;
    util::ManualClock clock;
    oss::MemOss disk(clock);
    TieredBlockCache cache(cfg, diskCapacity > 0 ? &disk : nullptr, clock);
    const std::string block(cfg.dram.blockSize, 'l');
    constexpr int kPaths = 200000;
    for (int i = 0; i < kPaths; ++i) {
      const std::string path = "/l/" + std::to_string(i);
      ASSERT_FALSE(cache.LookupDetailed(path, 0).data.has_value());
      cache.Insert(path, 0, block);
      const auto stats = cache.GetTieredStats();
      ASSERT_LE(stats.filesTracked, stats.dram.blockCount + stats.diskBlockCount)
          << "after path " << i;
    }
    const std::string last = "/l/" + std::to_string(kPaths - 1);
    ASSERT_TRUE(cache.LookupDetailed(last, 0).data.has_value());
    const auto life = cache.FileStats(last);
    ASSERT_TRUE(life.has_value());
    EXPECT_EQ(life->lookups, 1u);  // the first miss came before the entry
    EXPECT_EQ(life->reuses, 1u);
    EXPECT_EQ(life->dramBlocks + life->diskBlocks, 1u);
    EXPECT_FALSE(cache.FileStats("/l/0").has_value());  // long evicted
    EXPECT_FALSE(cache.LookupDetailed("/l/never", 0).data.has_value());
    EXPECT_FALSE(cache.FileStats("/l/never").has_value());  // a miss makes no entry

    EXPECT_GT(cache.PurgeAll(), 0u);
    EXPECT_EQ(cache.GetTieredStats().filesTracked, 0u);
    EXPECT_FALSE(cache.FileStats(last).has_value());
  }
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
  EXPECT_GT(cluster.proxy()->cache().GetTieredStats().hits, 0u);
}

// Operators, docs/API.md and perfbench (which reads pcache.hits, misses,
// dram.hits, disk.hits, promotions, spills and origin_fetches) know the
// proxy by these names: a rename or a dropped metric must be deliberate.
TEST(ProxySimTest, ProxyExportsThePinnedPcacheMetricNames) {
  sim::SimCluster cluster(ProxySpec());
  cluster.Start();
  cluster.PlaceFile(1, "/store/f", std::string(200, 'p'));
  auto& c = cluster.NewProxyClient();
  ASSERT_TRUE(cluster.ReadAll(c, "/store/f").ok());
  ASSERT_TRUE(cluster.ReadAll(c, "/store/f").ok());

  const obs::MetricsSnapshot snap = cluster.proxy()->SnapshotMetrics();
  std::set<std::string> names;
  const auto keep = [&names](const std::string& name) {
    if (name.rfind("pcache.", 0) == 0) names.insert(name);
  };
  for (const auto& [name, _] : snap.counters) keep(name);
  for (const auto& [name, _] : snap.gauges) keep(name);
  for (const auto& [name, _] : snap.histograms) keep(name);
  const std::set<std::string> pinned = {
      "pcache.admits_disk", "pcache.admits_dram", "pcache.blocks",
      "pcache.bytes_from_cache", "pcache.bytes_from_disk", "pcache.bytes_from_origin",
      "pcache.coalesced", "pcache.disk.blocks", "pcache.disk.evictions",
      "pcache.disk.hits", "pcache.disk.used_bytes", "pcache.disk.write_failures",
      "pcache.dram.blocks", "pcache.dram.evictions", "pcache.dram.hits",
      "pcache.dram.used_bytes", "pcache.dropped_spills", "pcache.evictions",
      "pcache.files_tracked", "pcache.ghost_hits", "pcache.hits",
      "pcache.inserts", "pcache.misses", "pcache.opens_local",
      "pcache.origin_fetches", "pcache.origin_opens", "pcache.promotions",
      "pcache.read_latency", "pcache.readaheads", "pcache.reads_local",
      "pcache.reads_with_miss", "pcache.spills", "pcache.used_bytes"};
  EXPECT_EQ(names, pinned);

  // The cache's counters export its own stats, unrenamed.
  const auto stats = cluster.proxy()->cache().GetTieredStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(snap.Counter("pcache.hits"), stats.hits);
  EXPECT_EQ(snap.Counter("pcache.misses"), stats.misses);
  EXPECT_EQ(snap.Counter("pcache.dram.hits"), stats.dramHits);
  EXPECT_EQ(snap.Gauge("pcache.blocks"),
            static_cast<std::int64_t>(stats.dram.blockCount + stats.diskBlockCount));
  EXPECT_GT(snap.Histogram("pcache.read_latency")->count, 0u);
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

// The proxy sizes a new file with one origin stat. A leaf that wedges
// between the origin open and that stat must not leave the path opening
// for good: the stat walk times out and recovers, and the client open
// parked behind it is answered.
TEST(ProxySimTest, OpenParkedBehindAStatAtAWedgedLeafIsAnswered) {
  sim::SimCluster cluster(ProxySpec(2));
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", std::string(64, 's'));

  auto& c = cluster.NewProxyClient();
  std::optional<client::OpenOutcome> open;
  c.Open("/store/f", AccessMode::kRead, false,
         [&open](const client::OpenOutcome& o) { open = o; });
  // The origin open lands at leaf 0, and its stat is then on the way.
  ASSERT_TRUE(cluster.engine().RunUntilPredicate(
      [&] { return cluster.proxy()->origin().OpenLatency().count() == 1; },
      cluster.engine().Now() + std::chrono::seconds(10)));
  cluster.WedgeServer(0);
  cluster.engine().RunUntilPredicate([&open] { return open.has_value(); },
                                     cluster.engine().Now() + std::chrono::seconds(120));
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->err, proto::XrdErr::kNone);
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

  // The disk hits promoted every block to DRAM before the read returned.
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

// An unlink through the proxy releases the origin handle the proxy held
// for the path: nothing reads through it again, and the leaf would keep
// it open for good.
TEST(ProxySimTest, UnlinkClosesTheOriginHandle) {
  sim::SimCluster cluster(ProxySpec(1));
  cluster.Start();
  cluster.PlaceFile(0, "/store/f", std::string(100, 'u'));
  const auto leafOpenHandles = [&cluster] {
    return cluster.server(0).SnapshotMetrics().Gauge("node.open_handles");
  };

  auto& c = cluster.NewProxyClient();
  ASSERT_TRUE(cluster.ReadAll(c, "/store/f").ok());
  ASSERT_EQ(leafOpenHandles(), 1);  // the proxy's, kept past the client's close
  ASSERT_TRUE(cluster.UnlinkAndWait(c, "/store/f").ok());
  cluster.RunFor(std::chrono::milliseconds(100));  // the close is fire and forget
  EXPECT_EQ(leafOpenHandles(), 0);
}

// An unlink that lands while the proxy's first-contact origin open (or
// the stat behind it) is still in flight answers the client opens parked
// on it with kNotFound, instead of leaving them to the client's attempt
// timeout, and the leaf keeps no handle for the gone file.
TEST(ProxySimTest, UnlinkAnswersOpensParkedBehindTheOriginOpen) {
  for (const int gapUs : {0, 100, 175}) {
    SCOPED_TRACE("unlink " + std::to_string(gapUs) + " us after the open");
    sim::SimCluster cluster(ProxySpec(1));
    cluster.Start();
    cluster.PlaceFile(0, "/store/f", std::string(100, 'u'));
    auto& c = cluster.NewProxyClient();

    const TimePoint sent = cluster.engine().Now();
    std::optional<client::OpenOutcome> open;
    TimePoint answered{};
    c.Open("/store/f", AccessMode::kRead, false,
           [&](const client::OpenOutcome& o) {
             open = o;
             answered = cluster.engine().Now();
           });
    cluster.RunFor(std::chrono::microseconds(gapUs));
    std::optional<proto::XrdErr> unlinked;
    c.Unlink("/store/f", [&unlinked](proto::XrdErr err) { unlinked = err; });
    cluster.engine().RunUntilPredicate(
        [&] { return open.has_value() && unlinked.has_value(); },
        cluster.engine().Now() + std::chrono::seconds(30));

    ASSERT_TRUE(open.has_value());
    EXPECT_EQ(open->err, proto::XrdErr::kNotFound);
    EXPECT_LT(answered - sent, std::chrono::milliseconds(1));
    ASSERT_TRUE(unlinked.has_value());
    EXPECT_EQ(*unlinked, proto::XrdErr::kNone);
    cluster.RunFor(std::chrono::milliseconds(100));  // the close is fire and forget
    EXPECT_EQ(cluster.server(0).SnapshotMetrics().Gauge("node.open_handles"), 0);
  }
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

class ProxyTcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ClusterSpec spec;
    spec.servers = 2;
    spec.cms.deadline = std::chrono::milliseconds(500);
    spec.cms.sweepPeriod = std::chrono::milliseconds(50);
    spec.withProxy = true;
    spec.proxyCache.blockSize = 64;
    spec.proxyCache.capacityBytes = 64 * 1024;
    auto made = sim::TcpCluster::Create(spec, NextBasePort(PortBand::kPcache));
    ASSERT_TRUE(made.ok()) << made.error().message;
    cluster_ = std::move(made).value();
    client_ = cluster_->NewProxyClient(std::chrono::seconds(20));  // the proxy IS its head
    ASSERT_NE(client_, nullptr);
  }

  std::unique_ptr<sim::TcpCluster> cluster_;
  client::SyncClient* client_ = nullptr;
};

TEST_F(ProxyTcpTest, ColdThenWarmReadsThroughProxy) {
  const std::string payload(200, 'w');
  cluster_->storage(0).Put("/store/f", payload);

  const auto cold = client_->GetFile("/store/f");
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold.value(), payload);
  // The proxy's state is read on its own loop.
  pcache::ProxyCacheNode& proxy = *cluster_->proxy();
  const net::NodeAddr at = proxy.config().addr;
  const auto originFetches = [&] {
    return proxy.metrics().GetCounter("pcache.origin_fetches").Value();
  };
  const std::uint64_t fetches = cluster_->RunOn(at, originFetches);
  EXPECT_GT(fetches, 0u);

  const auto warm = client_->GetFile("/store/f");
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm.value(), payload);
  EXPECT_EQ(cluster_->RunOn(at, originFetches), fetches);
  EXPECT_GT(cluster_->RunOn(at, [&] { return proxy.cache().GetTieredStats().hits; }), 0u);
}

TEST_F(ProxyTcpTest, StatsThroughProxyReportPcacheCounters) {
  cluster_->storage(1).Put("/store/g", std::string(150, 'g'));
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
  cluster_->storage(0).Put("/store/h", std::string(100, 'h'));
  ASSERT_TRUE(client_->GetFile("/store/h").ok());

  const auto purged = client_->CacheAdmin(proto::PcacheAdminOp::kPurgePath, "/store/h");
  ASSERT_TRUE(purged.ok()) << purged.error().message;
  EXPECT_GT(purged.value().blocksPurged, 0u);
  EXPECT_EQ(purged.value().blockCount, 0u);

  // The same frame at a regular manager fails loudly with kInvalid.
  client::SyncClient* direct = cluster_->NewClient(std::chrono::seconds(10));
  ASSERT_NE(direct, nullptr);
  const auto refused = direct->CacheAdmin(proto::PcacheAdminOp::kPurgeAll);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, proto::XrdErr::kInvalid);
}

}  // namespace
}  // namespace scalla
