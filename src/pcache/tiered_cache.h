// Two-tier proxy cache: the strict-LRU DRAM BlockCache layered over a
// local-disk tier backed by any oss::Oss (LocalOss in the daemon, MemOss
// in simulation). The shape follows ScaleStore's DRAM-over-SSD buffer
// manager and XCache's disk-backed proxy, with workload-driven placement:
//
//   - Ghost-list admission (2Q/TinyLFU-style): a first-touch block goes to
//     the DISK tier and leaves a ghost entry; only a block that proves
//     reuse (its key is found in the ghost list, or it is hit on disk)
//     earns a DRAM slot. A sequential scan therefore flows through the
//     disk tier without evicting the DRAM-resident hot set.
//   - Spill-on-evict: DRAM watermark victims are written to disk (via the
//     BlockCache eviction sink) instead of being dropped, so DRAM eviction
//     is a demotion, not data loss.
//   - Promote-on-disk-hit: a disk hit returns the bytes and promotes the
//     block to DRAM.
//   - A block lives in at most ONE tier at a time (admission and promotion
//     erase the disk copy), so a stale disk copy can never shadow a newer
//     DRAM write.
//
// Tier moves run inline, on the calling thread: the insert whose sweep
// evicts a block spills it before returning, and LookupDetailed promotes a
// disk hit before returning. The cache's one production caller is the
// proxy's own loop, where a move deferred to later would run on that same
// loop and hold the read's reply back anyway. Every shared structure keeps
// its lock, so callers on other threads stay safe.
//
// Per-file lifecycle stats (first/last access, lookups, reuses, resident
// blocks per tier) feed `scalla_cli cachestat` and the Bellavita-style
// workload studies in the bench. A file has an entry only while either
// tier holds one of its blocks, so the map is bounded by the cache's size.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/snapshot.h"
#include "oss/oss.h"
#include "pcache/block_cache.h"
#include "util/clock.h"
#include "util/result.h"

namespace scalla::sched {
class Executor;
}  // namespace scalla::sched

namespace scalla::pcache {

struct TieredCacheConfig {
  BlockCacheConfig dram;
  /// 0 disables the disk tier entirely (single-tier legacy behaviour:
  /// every insert goes straight to DRAM, evictions are data loss).
  std::uint64_t diskCapacityBytes = 0;
  double diskHighWatermark = 0.95;  // start evicting disk above this
  double diskLowWatermark = 0.80;   // evict disk down to this
  /// Ghost-list capacity in entries; 0 = auto (4x the DRAM block slots).
  std::size_t ghostEntries = 0;
  bool asyncTierOps = true;  // ignored; perfbench/micro.cc is its only user
};

/// Range/consistency checks for a tiered config, mirroring
/// net::ValidateFabricOptions: the config loader and the constructor agree
/// on what is legal, and bad directive files fail loudly.
Result<void> ValidateTieredConfig(const TieredCacheConfig& config);

enum class CacheTier : std::uint8_t { kNone = 0, kDram = 1, kDisk = 2 };

struct TieredCacheStats {
  // Combined lookup outcomes (either tier answering counts as a hit).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  // Per-tier detail.
  BlockCacheStats dram;            // the DRAM tier's own counters
  std::uint64_t dramHits = 0;      // lookups answered from DRAM
  std::uint64_t diskHits = 0;      // lookups answered from disk
  std::uint64_t diskUsedBytes = 0;
  std::uint64_t diskBlockCount = 0;
  std::uint64_t diskEvictions = 0;      // disk watermark victims (data loss)
  std::uint64_t diskWriteFailures = 0;  // spills/inserts the backend refused
  // Placement traffic.
  std::uint64_t admitsDram = 0;  // inserts that earned a DRAM slot
  std::uint64_t admitsDisk = 0;  // first-touch inserts routed to disk
  std::uint64_t spills = 0;      // DRAM victims demoted to disk
  std::uint64_t droppedSpills = 0;  // DRAM victims not spilled (write failed / newer DRAM copy)
  std::uint64_t promotions = 0;     // disk hits promoted to DRAM
  std::uint64_t ghostHits = 0;      // admissions proven by the ghost list
  std::uint64_t filesTracked = 0;   // lifecycle entries (files with a resident block)
};

/// Lifecycle of one path through the cache (Bellavita et al.'s access
/// metadata: when it arrived, when it was last wanted, how often reuse
/// actually happened, and where its blocks live right now).
struct FileLifecycle {
  TimePoint firstAccess{};
  TimePoint lastAccess{};
  std::uint64_t lookups = 0;
  std::uint64_t reuses = 0;  // lookups answered by either tier
  std::uint64_t dramBlocks = 0;
  std::uint64_t diskBlocks = 0;
};

class TieredBlockCache {
 public:
  struct LookupResult {
    std::optional<std::string> data;
    CacheTier tier = CacheTier::kNone;  // which tier answered (kNone = miss)
  };

  /// `disk` must outlive the cache and is required when
  /// config.diskCapacityBytes > 0. The config must pass
  /// ValidateTieredConfig.
  TieredBlockCache(const TieredCacheConfig& config, oss::Oss* disk, util::Clock& clock);
  /// Ignores `executor`; perfbench/micro.cc is its only user.
  TieredBlockCache(const TieredCacheConfig& config, oss::Oss* disk,
                   sched::Executor* executor, util::Clock& clock);
  ~TieredBlockCache();

  TieredBlockCache(const TieredBlockCache&) = delete;
  TieredBlockCache& operator=(const TieredBlockCache&) = delete;

  std::uint32_t BlockSize() const;
  bool DiskEnabled() const;

  /// DRAM, then disk. A disk hit returns the bytes after promoting the
  /// block to DRAM. Both outcomes count toward stats.
  std::optional<std::string> Lookup(const std::string& path, std::uint64_t index);
  LookupResult LookupDetailed(const std::string& path, std::uint64_t index);

  /// Recency- and stats-neutral presence probe across both tiers.
  bool Contains(const std::string& path, std::uint64_t index) const;

  /// Admission-controlled store: DRAM if the block is already DRAM-resident
  /// or proves reuse via the ghost list, else the disk tier. With the disk
  /// tier disabled, behaves exactly like BlockCache::Insert.
  void Insert(const std::string& path, std::uint64_t index, std::string data,
              bool pinned = false);

  /// Pins the block in whichever tier holds it (pinned blocks are never
  /// evicted, spilled over, or purged). Returns false on miss.
  bool Pin(const std::string& path, std::uint64_t index);
  void Unpin(const std::string& path, std::uint64_t index);

  /// Drops every unpinned block of `path` from BOTH tiers (and the ghost
  /// list).
  std::uint64_t Purge(const std::string& path);
  std::uint64_t PurgeAll();

  TieredCacheStats GetTieredStats() const;
  /// Writes the cache's `pcache.*` counters and gauges: tier-agnostic
  /// hits/misses/inserts, occupancy over both tiers, each tier's own
  /// detail and the placement traffic. `pcache.evictions` counts lost data
  /// only: with the disk tier on, a DRAM eviction is a spill, not a loss.
  void ExportMetrics(obs::MetricsSnapshot& snap) const;
  std::uint64_t UsedBytes() const;

  /// The file's lifecycle; nullopt when neither tier holds a block of it.
  std::optional<FileLifecycle> FileStats(const std::string& path) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace scalla::pcache
