// Differential property tests for the proxy cache.
//
// 1. The DRAM tier (a TieredBlockCache with the disk tier off) vs a
//    single-map reference model: the model re-implements the documented
//    semantics (stamp recency, watermark burst eviction of the oldest
//    unpinned block, pin counts, purge) with no LRU list, and a seeded
//    random op stream must agree on every observable — lookup results,
//    return counts, stats, and the resident set after every operation, so
//    a wrong victim fails at the step that takes it.
// 2. TieredBlockCache (DRAM + MemOss disk tier) against an integrity
//    model: a hit in either tier must return the bytes most recently
//    inserted, pinned blocks must never be lost or purged, and the
//    per-tier accounting identities must hold at every audit point.
// 3. A multi-threaded hammer over the tier moves, run under TSan (and
//    repeated) by scripts/verify.sh.
// 4. The scan-resistance regression gate: a sequential scan of 2x the
//    DRAM tier must not dent the Zipf hot set's hit rate by more than
//    5 points. Strict LRU (disk tier disabled) fails this bound; ghost
//    admission passes it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oss/mem_oss.h"
#include "pcache/tiered_cache.h"
#include "util/clock.h"
#include "util/rng.h"

namespace scalla::pcache {
namespace {

// ------------------------------------------------ DRAM tier vs reference

// The reference model: one flat map, no LRU list. Recency is a stamp
// alone; eviction repeatedly removes the smallest-stamp unpinned entry.
// Everything the real cache reports must match this.
class ReferenceModel {
 public:
  struct Entry {
    std::string data;
    std::uint64_t stamp = 0;
    int pins = 0;
  };
  using Key = std::pair<std::string, std::uint64_t>;

  explicit ReferenceModel(const BlockCacheConfig& config) : config_(config) {}

  std::optional<std::string> Lookup(const std::string& path, std::uint64_t index) {
    const auto it = entries_.find({path, index});
    if (it == entries_.end()) {
      ++misses_;
      return std::nullopt;
    }
    it->second.stamp = nextStamp_++;
    ++hits_;
    return it->second.data;
  }

  void Insert(const std::string& path, std::uint64_t index, std::string data,
              bool pinned) {
    auto& e = entries_[{path, index}];
    usedBytes_ += data.size();
    usedBytes_ -= e.data.size();  // 0 for a fresh entry
    e.data = std::move(data);
    e.stamp = nextStamp_++;
    if (pinned) ++e.pins;
    ++inserts_;
    const auto high = static_cast<std::uint64_t>(
        config_.highWatermark * static_cast<double>(config_.capacityBytes));
    if (usedBytes_ > high) EvictToLowWatermark();
  }

  bool Pin(const std::string& path, std::uint64_t index) {
    const auto it = entries_.find({path, index});
    if (it == entries_.end()) return false;
    ++it->second.pins;
    return true;
  }

  void Unpin(const std::string& path, std::uint64_t index) {
    const auto it = entries_.find({path, index});
    if (it != entries_.end() && it->second.pins > 0) --it->second.pins;
  }

  bool Contains(const std::string& path, std::uint64_t index) const {
    return entries_.count({path, index}) > 0;
  }

  std::uint64_t Purge(const std::string& path) {
    std::uint64_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->first.first == path && it->second.pins == 0) {
        usedBytes_ -= it->second.data.size();
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  std::uint64_t PurgeAll() {
    std::uint64_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.pins == 0) {
        usedBytes_ -= it->second.data.size();
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  TieredCacheStats GetStats() const {
    TieredCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.inserts = inserts_;
    s.dram.evictions = evictions_;
    s.dram.usedBytes = usedBytes_;
    s.dram.blockCount = entries_.size();
    return s;
  }

  const std::map<Key, Entry>& entries() const { return entries_; }

 private:
  void EvictToLowWatermark() {
    const auto low = static_cast<std::uint64_t>(
        config_.lowWatermark * static_cast<double>(config_.capacityBytes));
    while (usedBytes_ > low) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.pins > 0) continue;
        if (victim == entries_.end() || it->second.stamp < victim->second.stamp) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return;  // everything pinned
      usedBytes_ -= victim->second.data.size();
      ++evictions_;
      entries_.erase(victim);
    }
  }

  BlockCacheConfig config_;
  std::map<Key, Entry> entries_;
  std::uint64_t nextStamp_ = 0;
  std::uint64_t usedBytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
};

std::string RandomBlock(util::Rng& rng, std::uint32_t blockSize) {
  const std::size_t len = 1 + rng.NextBelow(blockSize);
  return std::string(len, static_cast<char>('a' + rng.NextBelow(26)));
}

class PcachePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcachePropertyTest, DramTierAgreesWithReferenceModel) {
  TieredCacheConfig cfg;
  cfg.dram.blockSize = 32;
  cfg.dram.capacityBytes = 1024;
  cfg.dram.highWatermark = 0.9;
  cfg.dram.lowWatermark = 0.6;

  util::ManualClock clock;
  TieredBlockCache cache(cfg, nullptr, clock);  // DRAM only
  ReferenceModel model(cfg.dram);

  util::Rng rng(GetParam());
  const std::vector<std::string> paths = {"/a", "/b", "/c", "/d/deep/path",
                                          "/e", "/f", "/g", "/h"};

  for (int step = 0; step < 20000; ++step) {
    const std::string& path = paths[rng.NextBelow(paths.size())];
    const std::uint64_t index = rng.NextBelow(32);
    switch (rng.NextBelow(12)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // lookup
        const auto got = cache.Lookup(path, index);
        const auto want = model.Lookup(path, index);
        ASSERT_EQ(got, want) << "step " << step << " lookup " << path << "#" << index;
        break;
      }
      case 4:
      case 5:
      case 6:
      case 7: {  // insert (occasionally pinned)
        const bool pinned = rng.NextBool(0.1);
        std::string data = RandomBlock(rng, cfg.dram.blockSize);
        model.Insert(path, index, data, pinned);
        cache.Insert(path, index, std::move(data), pinned);
        break;
      }
      case 8: {  // pin, remembering to unpin later via the op stream
        ASSERT_EQ(cache.Pin(path, index), model.Pin(path, index)) << "step " << step;
        break;
      }
      case 9: {  // unpin (also drains pins accumulated by case 8)
        cache.Unpin(path, index);
        model.Unpin(path, index);
        break;
      }
      case 10: {  // contains (stats-neutral)
        ASSERT_EQ(cache.Contains(path, index), model.Contains(path, index));
        break;
      }
      default: {  // purge one path; full purge rarely
        if (rng.NextBool(0.1)) {
          ASSERT_EQ(cache.PurgeAll(), model.PurgeAll()) << "step " << step;
        } else {
          ASSERT_EQ(cache.Purge(path), model.Purge(path)) << "step " << step;
        }
        break;
      }
    }

    // The resident sets agree after every operation: the same number of
    // blocks, and every model entry present. The victims' bytes are what
    // the tiered cache spills to disk; TieredCacheNeverServesStaleOrTornBytes
    // and the spill-order test in pcache_test check those.
    ASSERT_EQ(cache.GetTieredStats().dram.blockCount, model.entries().size())
        << "step " << step;
    for (const auto& [key, entry] : model.entries()) {
      ASSERT_TRUE(cache.Contains(key.first, key.second))
          << key.first << "#" << key.second << " missing at step " << step;
    }

    if (step % 500 == 499) {
      const auto got = cache.GetTieredStats();
      const auto want = model.GetStats();
      ASSERT_EQ(got.hits, want.hits) << "step " << step;
      ASSERT_EQ(got.misses, want.misses) << "step " << step;
      ASSERT_EQ(got.inserts, want.inserts) << "step " << step;
      ASSERT_EQ(got.dram.evictions, want.dram.evictions) << "step " << step;
      ASSERT_EQ(got.dram.usedBytes, want.dram.usedBytes) << "step " << step;
      ASSERT_EQ(got.dram.blockCount, want.dram.blockCount) << "step " << step;
      ASSERT_EQ(cache.UsedBytes(), want.dram.usedBytes);
    }
  }
}

// --------------------------------------- TieredBlockCache integrity model

// Deterministic per-version block content so any torn or stale byte path
// (spill, promote, disk round trip) shows up as a content mismatch.
std::string VersionedBlock(const std::string& path, std::uint64_t index,
                           std::uint64_t version, std::uint32_t blockSize) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ version;
  for (const char c : path) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  h ^= index * 0x9E3779B97F4A7C15ULL;
  std::string out(blockSize, '\0');
  for (std::uint32_t i = 0; i < blockSize; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    out[i] = static_cast<char>('0' + (h % 64));
  }
  return out;
}

TEST_P(PcachePropertyTest, TieredCacheNeverServesStaleOrTornBytes) {
  TieredCacheConfig cfg;
  cfg.dram.blockSize = 32;
  cfg.dram.capacityBytes = 512;  // 16 slots: constant spill pressure
  cfg.dram.highWatermark = 0.9;
  cfg.dram.lowWatermark = 0.6;
  cfg.diskCapacityBytes = 2048;
  cfg.diskHighWatermark = 0.9;
  cfg.diskLowWatermark = 0.7;
  cfg.ghostEntries = 64;

  util::ManualClock clock;
  oss::MemOss disk(clock);
  TieredBlockCache cache(cfg, &disk, clock);

  // Model entry: the content version last inserted (0 = never), and the
  // pins we currently hold. Purge resets unpinned keys to version 0.
  struct ModelEntry {
    std::uint64_t version = 0;
    int pins = 0;
  };
  std::map<std::pair<std::string, std::uint64_t>, ModelEntry> model;
  std::uint64_t nextVersion = 1;

  util::Rng rng(GetParam());
  const std::vector<std::string> paths = {"/t/a", "/t/b", "/t/c", "/t/d", "/t/e"};
  std::uint64_t pinnedBytes = 0;

  for (int step = 0; step < 12000; ++step) {
    const std::string& path = paths[rng.NextBelow(paths.size())];
    const std::uint64_t index = rng.NextBelow(24);
    auto& entry = model[{path, index}];
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // lookup: any hit must carry the latest version's bytes
        const auto hit = cache.LookupDetailed(path, index);
        if (hit.data.has_value()) {
          ASSERT_GT(entry.version, 0u)
              << "hit on a never-inserted/purged key " << path << "#" << index
              << " at step " << step;
          ASSERT_EQ(*hit.data,
                    VersionedBlock(path, index, entry.version, cfg.dram.blockSize))
              << "stale/torn bytes from tier " << static_cast<int>(hit.tier)
              << " at step " << step;
          // A promotable disk hit is re-resident by the time
          // LookupDetailed returns — usually in DRAM, but when DRAM is
          // saturated with pinned blocks the promotion legitimately
          // spills straight back to disk. Either way the block must still
          // be readable with the same bytes (promotion never loses data).
          if (hit.tier == CacheTier::kDisk && entry.pins == 0) {
            const auto again = cache.LookupDetailed(path, index);
            ASSERT_TRUE(again.data.has_value())
                << "promotion lost the block at step " << step;
            ASSERT_EQ(*again.data, *hit.data)
                << "promotion corrupted the block at step " << step;
          }
        } else if (entry.pins > 0) {
          FAIL() << "pinned block " << path << "#" << index << " lost at step " << step;
        }
        break;
      }
      case 4:
      case 5:
      case 6: {  // insert a fresh version
        const bool pinned = rng.NextBool(0.1) && entry.pins == 0;
        entry.version = nextVersion++;
        cache.Insert(path, index,
                     VersionedBlock(path, index, entry.version, cfg.dram.blockSize),
                     pinned);
        if (pinned) {
          entry.pins = 1;
          pinnedBytes += cfg.dram.blockSize;
        }
        break;
      }
      case 7: {  // pin/unpin cycle bounded by the model's pin ledger
        if (entry.pins > 0) {
          cache.Unpin(path, index);
          entry.pins = 0;
          pinnedBytes -= cfg.dram.blockSize;
        } else if (cache.Pin(path, index)) {
          ASSERT_GT(entry.version, 0u) << "pinned a phantom block at step " << step;
          entry.pins = 1;
          pinnedBytes += cfg.dram.blockSize;
        }
        break;
      }
      case 8: {  // purge one path: unpinned keys must be gone from BOTH tiers
        (void)cache.Purge(path);
        for (auto& [key, e] : model) {
          if (key.first != path) continue;
          if (e.pins == 0) {
            e.version = 0;
            ASSERT_FALSE(cache.Contains(key.first, key.second))
                << key.first << "#" << key.second << " survived purge at step " << step;
          } else {
            ASSERT_TRUE(cache.Contains(key.first, key.second))
                << "pinned " << key.first << "#" << key.second << " purged at step "
                << step;
          }
        }
        break;
      }
      default: {  // clock advance + lifecycle sanity
        clock.Advance(std::chrono::seconds(1));
        const auto life = cache.FileStats(path);
        if (life.has_value()) {
          ASSERT_GE(life->lookups, life->reuses);
          ASSERT_GE(life->lastAccess, life->firstAccess);
        }
        break;
      }
    }

    if (step % 400 == 399) {
      const auto stats = cache.GetTieredStats();
      ASSERT_EQ(stats.hits, stats.dramHits + stats.diskHits);
      ASSERT_EQ(cache.UsedBytes(), stats.dram.usedBytes + stats.diskUsedBytes);
      ASSERT_EQ(stats.dram.usedBytes, stats.dram.blockCount * cfg.dram.blockSize);
      ASSERT_EQ(stats.diskUsedBytes, stats.diskBlockCount * cfg.dram.blockSize);
      obs::MetricsSnapshot snap;
      cache.ExportMetrics(snap);
      ASSERT_EQ(snap.Gauge("pcache.used_bytes"), static_cast<std::int64_t>(cache.UsedBytes()));
      ASSERT_EQ(snap.Gauge("pcache.blocks"),
                static_cast<std::int64_t>(stats.dram.blockCount + stats.diskBlockCount));
      // Pinned blocks may hold a tier over its watermark target, but never
      // by more than the pinned bytes themselves.
      ASSERT_LE(stats.dram.usedBytes, cfg.dram.capacityBytes + pinnedBytes);
      ASSERT_LE(stats.diskUsedBytes, cfg.diskCapacityBytes + pinnedBytes);
      // Every pinned block is resident and readable.
      for (const auto& [key, e] : model) {
        if (e.pins == 0) continue;
        ASSERT_TRUE(cache.Contains(key.first, key.second))
            << "pinned " << key.first << "#" << key.second << " lost at step " << step;
      }
    }
  }

  // Drain: unpin everything, purge both tiers, and the cache must be empty.
  for (const auto& [key, e] : model) {
    if (e.pins > 0) cache.Unpin(key.first, key.second);
  }
  EXPECT_GT(cache.PurgeAll(), 0u);
  EXPECT_EQ(cache.UsedBytes(), 0u);
  const auto drained = cache.GetTieredStats();
  EXPECT_EQ(drained.dram.blockCount + drained.diskBlockCount, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcachePropertyTest,
                         ::testing::Values(3, 17, 99, 4242, 616161));

// --------------------------------------------- multithreaded (TSan) hammer

// Eight threads mix lookups, inserts, pin/unpin pairs and purges over a
// tight two-tier cache. Afterwards the accounting must be coherent, no
// file may keep a lifecycle entry without a resident block, and PurgeAll
// must empty both tiers: a pin lost while a block moved between tiers
// would keep that block alive for good.
TEST(TieredCacheConcurrencyTest, TierMovesSurviveThreads) {
  TieredCacheConfig cfg;
  cfg.dram.blockSize = 64;
  cfg.dram.capacityBytes = 64 * 32;  // tight: constant eviction + spill
  cfg.dram.highWatermark = 0.9;
  cfg.dram.lowWatermark = 0.5;
  cfg.diskCapacityBytes = 64 * 96;
  cfg.diskHighWatermark = 0.9;
  cfg.diskLowWatermark = 0.6;

  util::SystemClock clock;
  oss::MemOss disk(clock);
  TieredBlockCache cache(cfg, &disk, clock);

  constexpr int kThreads = 8;
  constexpr int kOps = 1500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(9000 + t);
      const std::string path = "/c/" + std::to_string(t % 3);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t idx = rng.NextBelow(48);
        switch (rng.NextBelow(8)) {
          case 0:
          case 1:
          case 2: {
            const auto hit = cache.Lookup(path, idx);
            if (hit.has_value()) {
              // Content integrity even mid-spill/promote: every insert of
              // (path, idx) writes the same bytes.
              ASSERT_EQ(hit->size(), 64u);
              ASSERT_EQ((*hit)[0], path.back());
            }
            break;
          }
          case 3:
          case 4:
          case 5: {
            std::string data(64, path.back());
            cache.Insert(path, idx, std::move(data));
            break;
          }
          case 6: {  // pin/unpin pair: no pins outlive the op
            if (cache.Pin(path, idx)) cache.Unpin(path, idx);
            break;
          }
          default: {
            if (rng.NextBool(0.1)) {
              (void)cache.Purge(path);
            } else {
              (void)cache.Contains(path, idx);
              (void)cache.FileStats(path);
              (void)cache.GetTieredStats();
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = cache.GetTieredStats();
  EXPECT_EQ(stats.hits, stats.dramHits + stats.diskHits);
  EXPECT_LE(stats.dram.usedBytes, cfg.dram.capacityBytes);
  EXPECT_LE(stats.diskUsedBytes, cfg.diskCapacityBytes);
  EXPECT_EQ(cache.UsedBytes(), stats.dram.usedBytes + stats.diskUsedBytes);
  EXPECT_LE(stats.filesTracked, stats.dram.blockCount + stats.diskBlockCount);

  (void)cache.PurgeAll();
  EXPECT_EQ(cache.UsedBytes(), 0u);
  const auto drained = cache.GetTieredStats();
  EXPECT_EQ(drained.dram.blockCount + drained.diskBlockCount, 0u);
  EXPECT_EQ(drained.filesTracked, 0u);
}

// ------------------------------------------------- scan-resistance gate

// Drives `accesses` Zipf-distributed reads over the hot set; a miss
// re-inserts the block (what the proxy's origin fetch does). Returns the
// hit rate. The rng is seeded per call so warm-up and measurement phases
// see identical access sequences across cache configurations.
double RunHotPhase(TieredBlockCache& cache, std::uint64_t seed, int hotBlocks,
                   int accesses, std::uint32_t blockSize) {
  util::Rng rng(seed);
  util::ZipfSampler zipf(static_cast<std::size_t>(hotBlocks), 0.9);
  int hits = 0;
  for (int i = 0; i < accesses; ++i) {
    const auto idx = static_cast<std::uint64_t>(zipf.Sample(rng));
    if (cache.Lookup("/hot", idx).has_value()) {
      ++hits;
    } else {
      cache.Insert("/hot", idx, std::string(blockSize, 'h'));
    }
  }
  return static_cast<double>(hits) / static_cast<double>(accesses);
}

// One cold sequential pass over `scanBlocks` distinct blocks (2x the DRAM
// tier in the test): the access pattern ghost admission exists to absorb.
void RunScan(TieredBlockCache& cache, int scanBlocks, std::uint32_t blockSize) {
  for (int i = 0; i < scanBlocks; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if (!cache.Lookup("/scan", idx).has_value()) {
      cache.Insert("/scan", idx, std::string(blockSize, 's'));
    }
  }
}

TEST(ScanResistanceTest, SequentialScanBarelyDentsHotSetHitRate) {
  constexpr std::uint32_t kBlock = 1024;
  constexpr int kDramSlots = 64;
  constexpr int kHotBlocks = 32;
  constexpr int kScanBlocks = kDramSlots * 2;  // 2x the DRAM tier
  constexpr int kMeasureAccesses = 256;
  constexpr std::uint64_t kSeed = 20260808;

  TieredCacheConfig tiered;
  tiered.dram.blockSize = kBlock;
  tiered.dram.capacityBytes = static_cast<std::uint64_t>(kDramSlots) * kBlock;
  tiered.dram.highWatermark = 0.95;
  tiered.dram.lowWatermark = 0.8;
  tiered.diskCapacityBytes = 4ull * 1024 * 1024;

  util::ManualClock clock;
  oss::MemOss disk(clock);
  TieredBlockCache cache(tiered, &disk, clock);

  // Warm until the hot set is DRAM-resident (first touch lands on disk,
  // the second proves reuse and promotes).
  for (int pass = 0; pass < 3; ++pass) {
    (void)RunHotPhase(cache, kSeed + pass, kHotBlocks, 512, kBlock);
  }
  const double base = RunHotPhase(cache, kSeed, kHotBlocks, kMeasureAccesses, kBlock);
  RunScan(cache, kScanBlocks, kBlock);
  const double post = RunHotPhase(cache, kSeed, kHotBlocks, kMeasureAccesses, kBlock);

  // THE gate: within 5 points of the no-scan hit rate (ISSUE acceptance).
  EXPECT_GE(post, base - 0.05)
      << "scan of " << kScanBlocks << " blocks dented the hot set: " << base
      << " -> " << post;
  // The scan itself flowed through the disk tier, not DRAM.
  EXPECT_GT(cache.GetTieredStats().admitsDisk, 0u);

  // Control: the identical workload against strict LRU (disk tier off)
  // violates the bound — this is the regression the tiered design fixes,
  // and it keeps the gate honest (a trivially-passing gate would pass
  // here too).
  TieredCacheConfig lru = tiered;
  lru.diskCapacityBytes = 0;
  TieredBlockCache lruCache(lru, nullptr, clock);
  for (int pass = 0; pass < 3; ++pass) {
    (void)RunHotPhase(lruCache, kSeed + pass, kHotBlocks, 512, kBlock);
  }
  const double lruBase = RunHotPhase(lruCache, kSeed, kHotBlocks, kMeasureAccesses, kBlock);
  RunScan(lruCache, kScanBlocks, kBlock);
  const double lruPost = RunHotPhase(lruCache, kSeed, kHotBlocks, kMeasureAccesses, kBlock);
  EXPECT_LT(lruPost, lruBase - 0.05)
      << "strict LRU unexpectedly survived the scan (" << lruBase << " -> "
      << lruPost << "); the gate is not discriminating";
}

}  // namespace
}  // namespace scalla::pcache
