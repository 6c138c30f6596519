#include "pcache/tiered_cache.h"

#include <cstdio>
#include <cstdlib>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace scalla::pcache {

namespace {

/// Name of one block in the disk-tier oss namespace. The index entry is
/// authoritative for the block's size: a rewrite that shrinks a block
/// leaves stale tail bytes in the backing file, and bounding reads by the
/// indexed size keeps them invisible.
std::string DiskBlockPath(const std::string& path, std::uint64_t index) {
  return path + "#b" + std::to_string(index);
}

bool BadWatermarks(double low, double high) {
  return low <= 0 || low > high || high > 1.0;
}

std::uint64_t Watermark(double fraction, std::uint64_t capacityBytes) {
  return static_cast<std::uint64_t>(fraction * static_cast<double>(capacityBytes));
}

}  // namespace

Result<void> ValidateTieredConfig(const TieredCacheConfig& config) {
  if (config.dram.blockSize == 0) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "pcache.blocksize must be positive");
  }
  if (config.dram.capacityBytes == 0) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "pcache.capacity must be positive");
  }
  if (BadWatermarks(config.dram.lowWatermark, config.dram.highWatermark)) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "pcache watermarks need 0 < lowater <= hiwater <= 1");
  }
  if (config.diskCapacityBytes > 0) {
    if (config.diskCapacityBytes < config.dram.blockSize) {
      return Result<void>::Err(proto::XrdErr::kInvalid,
                               "pcache.disk.capacity must hold at least one block");
    }
    if (BadWatermarks(config.diskLowWatermark, config.diskHighWatermark)) {
      return Result<void>::Err(
          proto::XrdErr::kInvalid,
          "pcache disk watermarks need 0 < lowater <= hiwater <= 1");
    }
  }
  return Result<void>::Ok();
}

// ---------------------------------------------------------------- Impl

struct TieredBlockCache::Impl {
  // The index. A path maps to its file record: its lifecycle and its
  // blocks. A block has one entry, which names its tier and holds its node
  // in that tier's LRU list; a node names its block by file and index. A
  // tier move splices the node into the other tier's list, so the entry,
  // its pins included, stays where it is.
  struct File;
  using FileEntry = std::pair<const std::string, File>;
  struct LruNode {
    FileEntry* file = nullptr;
    std::uint64_t index = 0;
  };
  using Lru = std::list<LruNode>;  // front = oldest

  struct Block {
    CacheTier tier = CacheTier::kNone;  // kNone only until it is placed
    std::string data;                   // the bytes, while in DRAM
    std::uint64_t size = 0;
    int pins = 0;
    Lru::iterator lruIt;
  };
  using BlockMap = std::map<std::uint64_t, Block>;

  struct File {
    FileLifecycle life;  // its block counts are filled in by FileStats
    BlockMap blocks;     // never empty: the record goes with its last block
  };

  struct Tier {
    Lru lru;
    std::uint64_t usedBytes = 0;
    std::uint64_t high = 0;  // a sweep starts above this many bytes
    std::uint64_t low = 0;   // and evicts down to this many
  };

  Impl(const TieredCacheConfig& cfg, oss::Oss* diskOss, util::Clock& clk)
      : config(cfg), disk(diskOss), clock(&clk) {
    dram.high = Watermark(cfg.dram.highWatermark, cfg.dram.capacityBytes);
    dram.low = Watermark(cfg.dram.lowWatermark, cfg.dram.capacityBytes);
    onDisk.high = Watermark(cfg.diskHighWatermark, cfg.diskCapacityBytes);
    onDisk.low = Watermark(cfg.diskLowWatermark, cfg.diskCapacityBytes);
    const std::uint64_t dramSlots = cfg.dram.capacityBytes / cfg.dram.blockSize + 1;
    ghostCapacity = cfg.ghostEntries != 0 ? cfg.ghostEntries
                                          : static_cast<std::size_t>(4 * dramSlots);
  }

  bool DiskEnabled() const { return config.diskCapacityBytes > 0 && disk != nullptr; }

  // Everything below requires mu.

  Tier& TierOf(CacheTier tier) { return tier == CacheTier::kDram ? dram : onDisk; }

  /// The block's entry, or null.
  Block* Find(const std::string& path, std::uint64_t index) {
    const auto fileIt = files.find(path);
    if (fileIt == files.end()) return nullptr;
    const auto it = fileIt->second.blocks.find(index);
    return it == fileIt->second.blocks.end() ? nullptr : &it->second;
  }

  /// Makes `b` the freshest block of tier `to`, holding `size` bytes there.
  void MoveTo(FileEntry& file, std::uint64_t index, Block& b, CacheTier to,
              std::uint64_t size) {
    Tier& dst = TierOf(to);
    if (b.tier == CacheTier::kNone) {
      b.lruIt = dst.lru.insert(dst.lru.end(), LruNode{&file, index});
    } else {
      Tier& src = TierOf(b.tier);
      src.usedBytes -= b.size;
      dst.lru.splice(dst.lru.end(), src.lru, b.lruIt);
    }
    dst.usedBytes += size;
    b.size = size;
    b.tier = to;
  }

  /// Keeps `data` as the block's DRAM copy, then sweeps DRAM; `b` may be
  /// gone when this returns.
  void StoreInDram(FileEntry& file, std::uint64_t index, Block& b, std::string data) {
    MoveTo(file, index, b, CacheTier::kDram, data.size());
    b.data = std::move(data);
    Sweep(CacheTier::kDram);
  }

  void Unlist(const Block& b) {
    Tier& tier = TierOf(b.tier);
    tier.usedBytes -= b.size;
    tier.lru.erase(b.lruIt);
  }

  /// Drops a block from the index, and its file's record with its last
  /// block. The disk copy, if any, is the caller's.
  void Forget(FileEntry& file, BlockMap::iterator it) {
    Unlist(it->second);
    file.second.blocks.erase(it);
    if (file.second.blocks.empty()) files.erase(files.find(file.first));
  }

  /// Drops the file's unpinned blocks, unlinking their disk copies;
  /// returns how many. The caller drops the record if it is left empty.
  std::uint64_t PurgeBlocks(FileEntry& file) {
    std::uint64_t dropped = 0;
    BlockMap& blocks = file.second.blocks;
    for (auto it = blocks.begin(); it != blocks.end();) {
      if (it->second.pins > 0) {
        ++it;
        continue;
      }
      if (it->second.tier == CacheTier::kDisk) {
        (void)disk->Unlink(DiskBlockPath(file.first, it->first));
      }
      Unlist(it->second);
      it = blocks.erase(it);
      ++dropped;
    }
    return dropped;
  }

  /// Burst-evicts the tier's oldest unpinned blocks, from above its high
  /// watermark down to its low one, in one pass over its list. A DRAM
  /// victim spills to disk; a disk victim is lost and leaves a ghost entry,
  /// so a re-fetch proves reuse and earns DRAM.
  void Sweep(CacheTier which) {
    Tier& tier = TierOf(which);
    if (tier.usedBytes <= tier.high) return;
    for (auto it = tier.lru.begin(); it != tier.lru.end() && tier.usedBytes > tier.low;) {
      const LruNode victim = *it++;  // step off first: the victim leaves this list
      const auto blockIt = victim.file->second.blocks.find(victim.index);
      Block& b = blockIt->second;
      if (b.pins > 0) continue;
      if (which == CacheTier::kDram) {
        ++stats.dram.evictions;
        if (Spill(*victim.file, victim.index, b)) continue;
      } else {
        ++stats.diskEvictions;
        const std::string dpath = DiskBlockPath(victim.file->first, victim.index);
        (void)disk->Unlink(dpath);
        GhostRecord(dpath);
      }
      Forget(*victim.file, blockIt);
    }
  }

  /// A DRAM victim's demotion: writes its bytes to disk and moves its entry
  /// there. False, and the block is lost, when the disk tier is off or
  /// refuses the write.
  bool Spill(FileEntry& file, std::uint64_t index, Block& b) {
    if (!DiskEnabled()) return false;
    const std::string bytes = std::move(b.data);
    if (!WriteBlock(DiskBlockPath(file.first, index), bytes)) {
      ++stats.droppedSpills;
      return false;
    }
    MoveTo(file, index, b, CacheTier::kDisk, bytes.size());
    ++stats.spills;
    Sweep(CacheTier::kDisk);
    return true;
  }

  /// Writes one block's backing file, counting a refusal.
  bool WriteBlock(const std::string& dpath, const std::string& data) {
    const bool written = (disk->StateOf(dpath) != oss::FileState::kAbsent ||
                          disk->Create(dpath).ok()) &&
                         disk->Write(dpath, 0, data).ok();
    if (!written) ++stats.diskWriteFailures;
    return written;
  }

  // ---- ghost list (admission filter): keys are DiskBlockPath() strings

  bool GhostConsume(const std::string& key) {
    const auto it = ghostMap.find(key);
    if (it == ghostMap.end()) return false;
    ghostFifo.erase(it->second);
    ghostMap.erase(it);
    return true;
  }

  void GhostRecord(const std::string& key) {
    if (ghostMap.count(key) != 0) return;
    ghostFifo.push_back(key);
    ghostMap.emplace(key, std::prev(ghostFifo.end()));
    while (ghostMap.size() > ghostCapacity) {
      ghostMap.erase(ghostFifo.front());
      ghostFifo.pop_front();
    }
  }

  void GhostDropPath(const std::string& path) {
    const std::string prefix = path + "#b";
    for (auto it = ghostFifo.begin(); it != ghostFifo.end();) {
      if (it->compare(0, prefix.size(), prefix) == 0) {
        ghostMap.erase(*it);
        it = ghostFifo.erase(it);
      } else {
        ++it;
      }
    }
  }

  const TieredCacheConfig config;
  oss::Oss* const disk;
  util::Clock* const clock;

  // Guards everything below, and serializes the disk tier's oss calls.
  std::mutex mu;
  std::unordered_map<std::string, File> files;
  Tier dram;
  Tier onDisk;
  std::list<std::string> ghostFifo;  // front = oldest
  std::unordered_map<std::string, std::list<std::string>::iterator> ghostMap;
  std::size_t ghostCapacity = 0;
  // The counters; occupancy and filesTracked are read off the index.
  TieredCacheStats stats;
};

// --------------------------------------------------- TieredBlockCache

TieredBlockCache::TieredBlockCache(const TieredCacheConfig& config, oss::Oss* disk,
                                   util::Clock& clock) {
  if (Result<void> valid = ValidateTieredConfig(config); !valid) {
    std::fprintf(stderr, "pcache: %s\n", valid.error().message.c_str());
    std::abort();
  }
  impl_ = std::make_unique<Impl>(config, disk, clock);
}

TieredBlockCache::TieredBlockCache(const TieredCacheConfig& config, oss::Oss* disk,
                                   sched::Executor* /*executor*/, util::Clock& clock)
    : TieredBlockCache(config, disk, clock) {}

TieredBlockCache::~TieredBlockCache() = default;

std::uint32_t TieredBlockCache::BlockSize() const {
  return impl_->config.dram.blockSize;
}

bool TieredBlockCache::DiskEnabled() const { return impl_->DiskEnabled(); }

std::optional<std::string> TieredBlockCache::Lookup(const std::string& path,
                                                    std::uint64_t index) {
  return LookupDetailed(path, index).data;
}

TieredBlockCache::LookupResult TieredBlockCache::LookupDetailed(
    const std::string& path, std::uint64_t index) {
  Impl& impl = *impl_;
  std::lock_guard lock(impl.mu);
  LookupResult res;
  const auto fileIt = impl.files.find(path);
  if (fileIt == impl.files.end()) {
    ++impl.stats.misses;  // and no record: a miss creates none
    return res;
  }
  Impl::FileEntry& file = *fileIt;
  file.second.life.lastAccess = impl.clock->Now();
  ++file.second.life.lookups;
  const auto blockIt = file.second.blocks.find(index);
  if (blockIt == file.second.blocks.end()) {
    ++impl.stats.misses;
    return res;
  }
  Impl::Block& b = blockIt->second;
  if (b.tier == CacheTier::kDram) {
    impl.dram.lru.splice(impl.dram.lru.end(), impl.dram.lru, b.lruIt);
    res.data = b.data;
    res.tier = CacheTier::kDram;
    ++impl.stats.hits;
    ++impl.stats.dramHits;
    ++file.second.life.reuses;
    return res;
  }
  const std::string dpath = DiskBlockPath(path, index);
  auto read = impl.disk->Read(dpath, 0, static_cast<std::uint32_t>(b.size));
  if (!read.ok() || read.value().size() != b.size) {
    // Torn or missing backing file: drop the entry, report a miss (the
    // origin re-fetch repairs it).
    impl.Forget(file, blockIt);
    ++impl.stats.misses;
    return res;
  }
  res.tier = CacheTier::kDisk;
  ++impl.stats.hits;
  ++impl.stats.diskHits;
  ++file.second.life.reuses;
  if (b.pins > 0) {
    // A pinned block stays on disk.
    impl.onDisk.lru.splice(impl.onDisk.lru.end(), impl.onDisk.lru, b.lruIt);
    res.data = std::move(read).value();
    return res;
  }
  res.data = read.value();
  (void)impl.disk->Unlink(dpath);
  impl.StoreInDram(file, index, b, std::move(read).value());
  ++impl.stats.promotions;
  return res;
}

bool TieredBlockCache::Contains(const std::string& path, std::uint64_t index) const {
  std::lock_guard lock(impl_->mu);
  return impl_->Find(path, index) != nullptr;
}

void TieredBlockCache::Insert(const std::string& path, std::uint64_t index,
                              std::string data, bool pinned) {
  Impl& impl = *impl_;
  std::lock_guard lock(impl.mu);
  ++impl.stats.inserts;
  const TimePoint now = impl.clock->Now();
  const auto [fileIt, newFile] = impl.files.try_emplace(path);
  Impl::FileEntry& file = *fileIt;
  if (newFile) file.second.life.firstAccess = now;
  file.second.life.lastAccess = now;
  Impl::Block& b = file.second.blocks[index];
  if (pinned) ++b.pins;
  if (!impl.DiskEnabled()) {
    impl.StoreInDram(file, index, b, std::move(data));
    return;
  }
  if (b.tier == CacheTier::kDram) {
    // Already DRAM-resident: replace in place (recency bumps like a hit).
    ++impl.stats.admitsDram;
    impl.StoreInDram(file, index, b, std::move(data));
    return;
  }
  const std::string dpath = DiskBlockPath(path, index);  // also its ghost key
  const bool provenReuse = impl.GhostConsume(dpath);
  if (provenReuse || b.tier == CacheTier::kDisk) {
    // The key has history (ghost entry, or a disk-resident copy being
    // replaced): it earned a DRAM slot.
    if (provenReuse) ++impl.stats.ghostHits;
    ++impl.stats.admitsDram;
    if (b.tier == CacheTier::kDisk) (void)impl.disk->Unlink(dpath);
    impl.StoreInDram(file, index, b, std::move(data));
    return;
  }
  // First touch: route to the disk tier and remember the key, so the next
  // insert of this block proves reuse. Scans flow through disk.
  ++impl.stats.admitsDisk;
  if (!impl.WriteBlock(dpath, data)) {
    // Backend refused the write: fall back to DRAM rather than lose a
    // block the proxy may hold pinned mid-fetch.
    impl.StoreInDram(file, index, b, std::move(data));
    return;
  }
  impl.MoveTo(file, index, b, CacheTier::kDisk, data.size());
  impl.Sweep(CacheTier::kDisk);
  impl.GhostRecord(dpath);
}

bool TieredBlockCache::Pin(const std::string& path, std::uint64_t index) {
  std::lock_guard lock(impl_->mu);
  Impl::Block* b = impl_->Find(path, index);
  if (b == nullptr) return false;
  ++b->pins;
  return true;
}

void TieredBlockCache::Unpin(const std::string& path, std::uint64_t index) {
  std::lock_guard lock(impl_->mu);
  Impl::Block* b = impl_->Find(path, index);
  if (b != nullptr && b->pins > 0) --b->pins;
}

std::uint64_t TieredBlockCache::Purge(const std::string& path) {
  Impl& impl = *impl_;
  std::lock_guard lock(impl.mu);
  std::uint64_t dropped = 0;
  if (const auto fileIt = impl.files.find(path); fileIt != impl.files.end()) {
    dropped = impl.PurgeBlocks(*fileIt);
    if (fileIt->second.blocks.empty()) impl.files.erase(fileIt);
  }
  impl.GhostDropPath(path);
  return dropped;
}

std::uint64_t TieredBlockCache::PurgeAll() {
  Impl& impl = *impl_;
  std::lock_guard lock(impl.mu);
  std::uint64_t dropped = 0;
  // Files with a pinned block survive, with their records.
  for (auto it = impl.files.begin(); it != impl.files.end();) {
    dropped += impl.PurgeBlocks(*it);
    it = it->second.blocks.empty() ? impl.files.erase(it) : std::next(it);
  }
  impl.ghostFifo.clear();
  impl.ghostMap.clear();
  return dropped;
}

void TieredBlockCache::ExportMetrics(obs::MetricsSnapshot& snap) const {
  const TieredCacheStats t = GetTieredStats();
  const auto gauge = [&snap](const std::string& name, std::uint64_t v) {
    snap.AddGauge(name, static_cast<std::int64_t>(v));
  };
  snap.AddCounter("pcache.hits", t.hits);
  snap.AddCounter("pcache.misses", t.misses);
  snap.AddCounter("pcache.inserts", t.inserts);
  // With the disk tier on, loss happens at disk eviction or when a spill
  // is dropped.
  snap.AddCounter("pcache.evictions", impl_->DiskEnabled()
                                          ? t.diskEvictions + t.droppedSpills
                                          : t.dram.evictions);
  gauge("pcache.used_bytes", t.dram.usedBytes + t.diskUsedBytes);
  gauge("pcache.blocks", t.dram.blockCount + t.diskBlockCount);
  snap.AddCounter("pcache.dram.hits", t.dramHits);
  snap.AddCounter("pcache.dram.evictions", t.dram.evictions);
  gauge("pcache.dram.used_bytes", t.dram.usedBytes);
  gauge("pcache.dram.blocks", t.dram.blockCount);
  snap.AddCounter("pcache.disk.hits", t.diskHits);
  snap.AddCounter("pcache.disk.evictions", t.diskEvictions);
  snap.AddCounter("pcache.disk.write_failures", t.diskWriteFailures);
  gauge("pcache.disk.used_bytes", t.diskUsedBytes);
  gauge("pcache.disk.blocks", t.diskBlockCount);
  snap.AddCounter("pcache.admits_dram", t.admitsDram);
  snap.AddCounter("pcache.admits_disk", t.admitsDisk);
  snap.AddCounter("pcache.spills", t.spills);
  snap.AddCounter("pcache.dropped_spills", t.droppedSpills);
  snap.AddCounter("pcache.promotions", t.promotions);
  snap.AddCounter("pcache.ghost_hits", t.ghostHits);
  gauge("pcache.files_tracked", t.filesTracked);
}

TieredCacheStats TieredBlockCache::GetTieredStats() const {
  Impl& impl = *impl_;
  std::lock_guard lock(impl.mu);
  TieredCacheStats t = impl.stats;
  t.dram.usedBytes = impl.dram.usedBytes;
  t.dram.blockCount = impl.dram.lru.size();
  t.diskUsedBytes = impl.onDisk.usedBytes;
  t.diskBlockCount = impl.onDisk.lru.size();
  t.filesTracked = impl.files.size();
  return t;
}

std::uint64_t TieredBlockCache::UsedBytes() const {
  std::lock_guard lock(impl_->mu);
  return impl_->dram.usedBytes + impl_->onDisk.usedBytes;
}

std::optional<FileLifecycle> TieredBlockCache::FileStats(
    const std::string& path) const {
  Impl& impl = *impl_;
  std::lock_guard lock(impl.mu);
  const auto it = impl.files.find(path);
  if (it == impl.files.end()) return std::nullopt;
  FileLifecycle life = it->second.life;
  for (const auto& [index, b] : it->second.blocks) {
    ++(b.tier == CacheTier::kDram ? life.dramBlocks : life.diskBlocks);
  }
  return life;
}

}  // namespace scalla::pcache
