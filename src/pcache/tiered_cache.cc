#include "pcache/tiered_cache.h"

#include <algorithm>
#include <atomic>
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

/// All mutable state lives here behind a shared_ptr: async spill/promote
/// tasks capture a weak reference, so a task that fires after the cache is
/// destroyed locks nothing and drops itself (no blocking destructor — a
/// sim executor may never run the task at all).
struct TieredBlockCache::Impl : std::enable_shared_from_this<TieredBlockCache::Impl> {
  struct DiskEntry {
    std::uint64_t size = 0;
    std::uint64_t stamp = 0;  // shares the DRAM tier's recency domain
    int pins = 0;
    std::list<BlockKey>::iterator lruIt;
  };
  struct FileState {
    FileLifecycle life;
    std::uint64_t epoch = 0;  // bumped by Purge(path); stale tasks drop
  };
  /// Purge generation captured when a spill/promote is scheduled; the task
  /// re-checks it so a purge between capture and execution wins.
  struct EpochStamp {
    std::uint64_t global = 0;
    std::uint64_t path = 0;
  };

  Impl(const TieredCacheConfig& cfg, oss::Oss* diskOss, sched::Executor* ex,
       util::Clock& clk)
      : config(cfg), disk(diskOss), executor(ex), clock(&clk), dram(cfg.dram) {
    asyncMode = config.asyncTierOps && executor != nullptr && DiskEnabled();
    const std::size_t dramSlots = static_cast<std::size_t>(
        config.dram.capacityBytes / std::max<std::uint32_t>(config.dram.blockSize, 1) + 1);
    ghostCapacity = config.ghostEntries != 0 ? config.ghostEntries : 4 * dramSlots;
  }

  bool DiskEnabled() const { return config.diskCapacityBytes > 0 && disk != nullptr; }

  // ---- tier-op scheduling ------------------------------------------

  void RunTierOp(std::function<void(Impl&)> op) {
    if (!asyncMode) {
      op(*this);
      return;
    }
    pendingOps.fetch_add(1, std::memory_order_acq_rel);
    std::weak_ptr<Impl> weak = weak_from_this();
    executor->Post([weak, op = std::move(op)] {
      auto impl = weak.lock();
      if (!impl) return;
      op(*impl);
      impl->pendingOps.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  EpochStamp SnapshotEpochs(const std::string& path) const {
    EpochStamp e;
    e.global = globalEpoch.load(std::memory_order_acquire);
    std::lock_guard lock(lifeMu);
    const auto it = files.find(path);
    e.path = it == files.end() ? 0 : it->second.epoch;
    return e;
  }

  bool EpochsValid(const std::string& path, const EpochStamp& e) const {
    if (globalEpoch.load(std::memory_order_acquire) != e.global) return false;
    std::lock_guard lock(lifeMu);
    const auto it = files.find(path);
    return (it == files.end() ? 0 : it->second.epoch) == e.path;
  }

  // ---- lifecycle ----------------------------------------------------

  void LifeOnAccess(const std::string& path, bool reuse) {
    const TimePoint now = clock->Now();
    std::lock_guard lock(lifeMu);
    FileState& st = files[path];
    if (st.life.lookups == 0 && st.life.firstAccess == TimePoint{}) {
      st.life.firstAccess = now;
    }
    st.life.lastAccess = now;
    ++st.life.lookups;
    if (reuse) ++st.life.reuses;
  }

  void LifeOnInsert(const std::string& path) {
    const TimePoint now = clock->Now();
    std::lock_guard lock(lifeMu);
    FileState& st = files[path];
    if (st.life.firstAccess == TimePoint{} && st.life.lookups == 0) {
      st.life.firstAccess = now;
    }
    st.life.lastAccess = now;
  }

  // ---- ghost list (admission filter) --------------------------------
  // Keys are DiskBlockPath() strings. Lock order: ghostMu is a leaf —
  // taken alone, or inside diskMu (disk eviction re-arming a key).

  bool GhostConsume(const std::string& key) {
    std::lock_guard lock(ghostMu);
    const auto it = ghostMap.find(key);
    if (it == ghostMap.end()) return false;
    ghostFifo.erase(it->second);
    ghostMap.erase(it);
    return true;
  }

  void GhostRecord(const std::string& key) {
    std::lock_guard lock(ghostMu);
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
    std::lock_guard lock(ghostMu);
    for (auto it = ghostFifo.begin(); it != ghostFifo.end();) {
      if (it->compare(0, prefix.size(), prefix) == 0) {
        ghostMap.erase(*it);
        it = ghostFifo.erase(it);
      } else {
        ++it;
      }
    }
  }

  void GhostClear() {
    std::lock_guard lock(ghostMu);
    ghostFifo.clear();
    ghostMap.clear();
  }

  // ---- disk tier ----------------------------------------------------
  // The in-memory index (sizes, pins, LRU) is authoritative; the oss only
  // holds bytes. All oss calls happen under diskMu, which serializes disk
  // I/O — acceptable because the async worker keeps it off the read path.
  // Lock order: pinMu > dram's evictMu_ > diskMu > ghostMu; diskMu never
  // wraps a DRAM shard lock.

  /// Writes the block and indexes it. `pins` seeds the entry's pin count
  /// (admission transfers pins when a block changes tier).
  bool DiskInsert(const std::string& path, std::uint64_t index,
                  const std::string& data, int pins) {
    const std::string dpath = DiskBlockPath(path, index);
    std::lock_guard lock(diskMu);
    if (disk->StateOf(dpath) == oss::FileState::kAbsent) {
      if (const auto created = disk->Create(dpath); !created.ok()) {
        diskWriteFailures.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    if (const auto written = disk->Write(dpath, 0, data); !written.ok()) {
      diskWriteFailures.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    auto& perFile = diskFiles[path];
    const auto it = perFile.find(index);
    if (it != perFile.end()) {
      diskUsedBytes += data.size();
      diskUsedBytes -= it->second.size;
      it->second.size = data.size();
      it->second.pins += pins;
      it->second.stamp = nextStamp.fetch_add(1, std::memory_order_relaxed);
      diskLru.splice(diskLru.end(), diskLru, it->second.lruIt);
    } else {
      DiskEntry e;
      e.size = data.size();
      e.pins = pins;
      e.stamp = nextStamp.fetch_add(1, std::memory_order_relaxed);
      diskLru.push_back(BlockKey{path, index});
      e.lruIt = std::prev(diskLru.end());
      perFile.emplace(index, e);
      diskUsedBytes += data.size();
      ++diskBlocks;
    }
    EvictDiskLocked();
    return true;
  }

  /// Removes a block from the disk tier. Returns the entry's pin count
  /// (>= 0) so a tier change can carry pins along, or -1 if not resident.
  int DiskErase(const std::string& path, std::uint64_t index) {
    std::lock_guard lock(diskMu);
    const auto fileIt = diskFiles.find(path);
    if (fileIt == diskFiles.end()) return -1;
    const auto it = fileIt->second.find(index);
    if (it == fileIt->second.end()) return -1;
    const int pins = it->second.pins;
    diskUsedBytes -= it->second.size;
    --diskBlocks;
    diskLru.erase(it->second.lruIt);
    fileIt->second.erase(it);
    if (fileIt->second.empty()) diskFiles.erase(fileIt);
    (void)disk->Unlink(DiskBlockPath(path, index));
    return pins;
  }

  struct DiskHit {
    std::string data;
    bool promotable = false;  // pinned entries stay put (pins live on disk)
  };

  std::optional<DiskHit> DiskLookup(const std::string& path, std::uint64_t index) {
    std::lock_guard lock(diskMu);
    const auto fileIt = diskFiles.find(path);
    if (fileIt == diskFiles.end()) return std::nullopt;
    const auto it = fileIt->second.find(index);
    if (it == fileIt->second.end()) return std::nullopt;
    DiskEntry& e = it->second;
    auto read = disk->Read(DiskBlockPath(path, index), 0,
                           static_cast<std::uint32_t>(e.size));
    if (!read.ok() || read.value().size() != e.size) {
      // Torn or missing backing file: drop the index entry, report a miss
      // (the origin re-fetch repairs it).
      diskUsedBytes -= e.size;
      --diskBlocks;
      diskLru.erase(e.lruIt);
      fileIt->second.erase(it);
      if (fileIt->second.empty()) diskFiles.erase(fileIt);
      return std::nullopt;
    }
    e.stamp = nextStamp.fetch_add(1, std::memory_order_relaxed);
    diskLru.splice(diskLru.end(), diskLru, e.lruIt);
    DiskHit hit;
    hit.data = std::move(read).value();
    hit.promotable = e.pins == 0;
    return hit;
  }

  /// Requires diskMu. Burst-evicts oldest-first between the watermarks;
  /// victims leave a ghost entry so a re-fetch proves reuse and earns DRAM.
  void EvictDiskLocked() {
    const auto high = static_cast<std::uint64_t>(
        config.diskHighWatermark * static_cast<double>(config.diskCapacityBytes));
    if (diskUsedBytes <= high) return;
    const auto low = static_cast<std::uint64_t>(
        config.diskLowWatermark * static_cast<double>(config.diskCapacityBytes));
    auto it = diskLru.begin();
    while (diskUsedBytes > low && it != diskLru.end()) {
      const BlockKey key = *it;
      const auto fileIt = diskFiles.find(key.path);
      DiskEntry& e = fileIt->second.at(key.index);
      if (e.pins > 0) {
        ++it;
        continue;
      }
      ++it;  // advance off the victim before erasing it
      diskUsedBytes -= e.size;
      --diskBlocks;
      diskEvictions.fetch_add(1, std::memory_order_relaxed);
      (void)disk->Unlink(DiskBlockPath(key.path, key.index));
      diskLru.erase(e.lruIt);
      fileIt->second.erase(key.index);
      if (fileIt->second.empty()) diskFiles.erase(fileIt);
      GhostRecord(DiskBlockPath(key.path, key.index));
    }
  }

  std::uint64_t DiskPurge(const std::string& path) {
    std::lock_guard lock(diskMu);
    const auto fileIt = diskFiles.find(path);
    if (fileIt == diskFiles.end()) return 0;
    std::uint64_t dropped = 0;
    for (auto it = fileIt->second.begin(); it != fileIt->second.end();) {
      if (it->second.pins > 0) {
        ++it;
        continue;
      }
      diskUsedBytes -= it->second.size;
      --diskBlocks;
      diskLru.erase(it->second.lruIt);
      (void)disk->Unlink(DiskBlockPath(path, it->first));
      it = fileIt->second.erase(it);
      ++dropped;
    }
    if (fileIt->second.empty()) diskFiles.erase(fileIt);
    return dropped;
  }

  std::uint64_t DiskPurgeAll() {
    std::lock_guard lock(diskMu);
    std::uint64_t dropped = 0;
    for (auto fileIt = diskFiles.begin(); fileIt != diskFiles.end();) {
      for (auto it = fileIt->second.begin(); it != fileIt->second.end();) {
        if (it->second.pins > 0) {
          ++it;
          continue;
        }
        diskUsedBytes -= it->second.size;
        --diskBlocks;
        diskLru.erase(it->second.lruIt);
        (void)disk->Unlink(DiskBlockPath(fileIt->first, it->first));
        it = fileIt->second.erase(it);
        ++dropped;
      }
      if (fileIt->second.empty()) {
        fileIt = diskFiles.erase(fileIt);
      } else {
        ++fileIt;
      }
    }
    return dropped;
  }

  bool DiskContains(const std::string& path, std::uint64_t index) const {
    std::lock_guard lock(diskMu);
    const auto fileIt = diskFiles.find(path);
    return fileIt != diskFiles.end() && fileIt->second.count(index) != 0;
  }

  // ---- tier movement ------------------------------------------------

  /// DRAM watermark victim arriving at the disk tier (the demotion half of
  /// the tier dance). Runs via RunTierOp.
  void Spill(EvictedBlock block, const EpochStamp& epochs) {
    if (!EpochsValid(block.key.path, epochs)) {
      droppedSpills.fetch_add(1, std::memory_order_relaxed);
      return;  // purged since eviction; do not resurrect
    }
    if (dram.Contains(block.key.path, block.key.index)) {
      // Re-inserted into DRAM since eviction: the DRAM copy is newer, and
      // a block lives in one tier only.
      droppedSpills.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (DiskInsert(block.key.path, block.key.index, block.data, /*pins=*/0)) {
      spills.fetch_add(1, std::memory_order_relaxed);
    } else {
      droppedSpills.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Disk hit earning its DRAM slot. Erase-first claims the block: if it
  /// is already gone (purged, evicted, promoted by a racing lookup), the
  /// promotion is stale and drops itself.
  void Promote(const std::string& path, std::uint64_t index, std::string data,
               const EpochStamp& epochs) {
    if (!EpochsValid(path, epochs)) return;
    std::lock_guard lock(pinMu);
    const int pins = DiskErase(path, index);
    if (pins < 0) return;
    dram.Insert(path, index, std::move(data), /*pinned=*/pins > 0);
    for (int i = 1; i < pins; ++i) dram.Pin(path, index);
    promotions.fetch_add(1, std::memory_order_relaxed);
  }

  TieredCacheConfig config;
  oss::Oss* disk = nullptr;
  sched::Executor* executor = nullptr;
  util::Clock* clock = nullptr;
  bool asyncMode = false;
  BlockCache dram;

  // Held across every disk -> DRAM move (the erase and the re-insert that
  // carries the pins) and by Pin/Unpin, so a pin change never lands while
  // the block sits in neither tier and is lost. Lock order: pinMu > dram's
  // evictMu_ > diskMu > ghostMu.
  std::mutex pinMu;

  mutable std::mutex diskMu;
  std::unordered_map<std::string, std::map<std::uint64_t, DiskEntry>> diskFiles;
  std::list<BlockKey> diskLru;  // front = oldest
  std::uint64_t diskUsedBytes = 0;
  std::uint64_t diskBlocks = 0;

  mutable std::mutex ghostMu;
  std::list<std::string> ghostFifo;  // front = oldest
  std::unordered_map<std::string, std::list<std::string>::iterator> ghostMap;
  std::size_t ghostCapacity = 0;

  mutable std::mutex lifeMu;
  std::unordered_map<std::string, FileState> files;
  std::atomic<std::uint64_t> globalEpoch{0};

  std::atomic<std::uint64_t> nextStamp{1};
  std::atomic<std::size_t> pendingOps{0};

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> inserts{0};
  std::atomic<std::uint64_t> dramHits{0};
  std::atomic<std::uint64_t> diskHits{0};
  std::atomic<std::uint64_t> diskEvictions{0};
  std::atomic<std::uint64_t> diskWriteFailures{0};
  std::atomic<std::uint64_t> admitsDram{0};
  std::atomic<std::uint64_t> admitsDisk{0};
  std::atomic<std::uint64_t> spills{0};
  std::atomic<std::uint64_t> droppedSpills{0};
  std::atomic<std::uint64_t> promotions{0};
  std::atomic<std::uint64_t> ghostHits{0};
};

// --------------------------------------------------- TieredBlockCache

TieredBlockCache::TieredBlockCache(const TieredCacheConfig& config, oss::Oss* disk,
                                   sched::Executor* executor, util::Clock& clock)
    : impl_(std::make_shared<Impl>(config, disk, executor, clock)) {
  if (impl_->DiskEnabled()) {
    // The sink runs under the DRAM sweep lock (never a shard lock); the
    // raw pointer is safe because the sink lives inside impl_->dram.
    Impl* impl = impl_.get();
    impl_->dram.SetEvictionSink([impl](EvictedBlock block) {
      const Impl::EpochStamp epochs = impl->SnapshotEpochs(block.key.path);
      impl->RunTierOp([block = std::move(block), epochs](Impl& i) mutable {
        i.Spill(std::move(block), epochs);
      });
    });
  }
}

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
  LookupResult res;
  if (auto hit = impl.dram.Lookup(path, index); hit.has_value()) {
    impl.hits.fetch_add(1, std::memory_order_relaxed);
    impl.dramHits.fetch_add(1, std::memory_order_relaxed);
    impl.LifeOnAccess(path, /*reuse=*/true);
    res.data = std::move(hit);
    res.tier = CacheTier::kDram;
    return res;
  }
  if (impl.DiskEnabled()) {
    // Capture the purge epoch before touching the bytes: a purge landing
    // after this point invalidates the scheduled promotion.
    const Impl::EpochStamp epochs = impl.SnapshotEpochs(path);
    if (auto hit = impl.DiskLookup(path, index); hit.has_value()) {
      impl.hits.fetch_add(1, std::memory_order_relaxed);
      impl.diskHits.fetch_add(1, std::memory_order_relaxed);
      impl.LifeOnAccess(path, /*reuse=*/true);
      res.data = hit->data;
      res.tier = CacheTier::kDisk;
      if (hit->promotable) {
        impl.RunTierOp([path, index, data = std::move(hit->data), epochs](
                           Impl& i) mutable {
          i.Promote(path, index, std::move(data), epochs);
        });
      }
      return res;
    }
  }
  impl.misses.fetch_add(1, std::memory_order_relaxed);
  impl.LifeOnAccess(path, /*reuse=*/false);
  return res;
}

bool TieredBlockCache::Contains(const std::string& path, std::uint64_t index) const {
  if (impl_->dram.Contains(path, index)) return true;
  return impl_->DiskEnabled() && impl_->DiskContains(path, index);
}

void TieredBlockCache::Insert(const std::string& path, std::uint64_t index,
                              std::string data, bool pinned) {
  Impl& impl = *impl_;
  impl.inserts.fetch_add(1, std::memory_order_relaxed);
  impl.LifeOnInsert(path);
  if (!impl.DiskEnabled()) {
    impl.dram.Insert(path, index, std::move(data), pinned);
    return;
  }
  if (impl.dram.Contains(path, index)) {
    // Already DRAM-resident: replace in place (recency bumps like a hit).
    impl.admitsDram.fetch_add(1, std::memory_order_relaxed);
    impl.dram.Insert(path, index, std::move(data), pinned);
    return;
  }
  const std::string ghostKey = DiskBlockPath(path, index);
  const bool provenReuse = impl.GhostConsume(ghostKey);
  std::unique_lock moveLock(impl.pinMu);
  const int diskPins = impl.DiskErase(path, index);  // exclusivity: one tier
  if (provenReuse || diskPins >= 0) {
    // The key has history (ghost entry, or a disk-resident copy being
    // replaced): it earned a DRAM slot.
    if (provenReuse) impl.ghostHits.fetch_add(1, std::memory_order_relaxed);
    impl.admitsDram.fetch_add(1, std::memory_order_relaxed);
    impl.dram.Insert(path, index, std::move(data), pinned || diskPins > 0);
    // The block's pins follow it across the tier change: the entry must
    // end up with (pinned ? 1 : 0) + diskPins pins, of which Insert's
    // pinned flag already granted one.
    int extra = (pinned ? 1 : 0) + std::max(diskPins, 0);
    if (pinned || diskPins > 0) extra -= 1;
    for (int i = 0; i < extra; ++i) impl.dram.Pin(path, index);
    return;
  }
  moveLock.unlock();
  // First touch: route to the disk tier and remember the key, so the next
  // insert of this block proves reuse. Scans flow through disk.
  impl.admitsDisk.fetch_add(1, std::memory_order_relaxed);
  if (!impl.DiskInsert(path, index, data, pinned ? 1 : 0)) {
    // Backend refused the write: fall back to DRAM rather than lose a
    // block the proxy may hold pinned mid-fetch.
    impl.dram.Insert(path, index, std::move(data), pinned);
    return;
  }
  impl.GhostRecord(ghostKey);
}

bool TieredBlockCache::Pin(const std::string& path, std::uint64_t index) {
  Impl& impl = *impl_;
  std::lock_guard pinLock(impl.pinMu);
  if (impl.dram.Pin(path, index)) return true;
  if (!impl.DiskEnabled()) return false;
  std::lock_guard lock(impl.diskMu);
  const auto fileIt = impl.diskFiles.find(path);
  if (fileIt == impl.diskFiles.end()) return false;
  const auto it = fileIt->second.find(index);
  if (it == fileIt->second.end()) return false;
  ++it->second.pins;
  return true;
}

void TieredBlockCache::Unpin(const std::string& path, std::uint64_t index) {
  Impl& impl = *impl_;
  std::lock_guard pinLock(impl.pinMu);
  if (impl.dram.Contains(path, index)) {
    impl.dram.Unpin(path, index);
    return;
  }
  if (!impl.DiskEnabled()) return;
  std::lock_guard lock(impl.diskMu);
  const auto fileIt = impl.diskFiles.find(path);
  if (fileIt == impl.diskFiles.end()) return;
  const auto it = fileIt->second.find(index);
  if (it == fileIt->second.end()) return;
  if (it->second.pins > 0) --it->second.pins;
}

std::uint64_t TieredBlockCache::Purge(const std::string& path) {
  Impl& impl = *impl_;
  {
    // Invalidate in-flight spill/promote tasks for this path. Only bump an
    // existing entry: resident blocks imply a lifecycle entry, so a purge
    // of an unknown path has nothing in flight to invalidate.
    std::lock_guard lock(impl.lifeMu);
    const auto it = impl.files.find(path);
    if (it != impl.files.end()) ++it->second.epoch;
  }
  std::uint64_t dropped = impl.dram.Purge(path);
  if (impl.DiskEnabled()) {
    dropped += impl.DiskPurge(path);
    impl.GhostDropPath(path);
  }
  return dropped;
}

std::uint64_t TieredBlockCache::PurgeAll() {
  Impl& impl = *impl_;
  impl.globalEpoch.fetch_add(1, std::memory_order_acq_rel);
  std::uint64_t dropped = impl.dram.PurgeAll();
  if (impl.DiskEnabled()) {
    dropped += impl.DiskPurgeAll();
    impl.GhostClear();
  }
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
  const Impl& impl = *impl_;
  TieredCacheStats t;
  t.dram = impl.dram.GetStats();
  t.hits = impl.hits.load(std::memory_order_relaxed);
  t.misses = impl.misses.load(std::memory_order_relaxed);
  t.inserts = impl.inserts.load(std::memory_order_relaxed);
  t.dramHits = impl.dramHits.load(std::memory_order_relaxed);
  t.diskHits = impl.diskHits.load(std::memory_order_relaxed);
  t.diskEvictions = impl.diskEvictions.load(std::memory_order_relaxed);
  t.diskWriteFailures = impl.diskWriteFailures.load(std::memory_order_relaxed);
  t.admitsDram = impl.admitsDram.load(std::memory_order_relaxed);
  t.admitsDisk = impl.admitsDisk.load(std::memory_order_relaxed);
  t.spills = impl.spills.load(std::memory_order_relaxed);
  t.droppedSpills = impl.droppedSpills.load(std::memory_order_relaxed);
  t.promotions = impl.promotions.load(std::memory_order_relaxed);
  t.ghostHits = impl.ghostHits.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(impl.diskMu);
    t.diskUsedBytes = impl.diskUsedBytes;
    t.diskBlockCount = impl.diskBlocks;
  }
  {
    std::lock_guard lock(impl.lifeMu);
    t.filesTracked = impl.files.size();
  }
  return t;
}

std::uint64_t TieredBlockCache::UsedBytes() const {
  std::uint64_t bytes = impl_->dram.UsedBytes();
  std::lock_guard lock(impl_->diskMu);
  return bytes + impl_->diskUsedBytes;
}

std::optional<FileLifecycle> TieredBlockCache::FileStats(
    const std::string& path) const {
  const Impl& impl = *impl_;
  FileLifecycle life;
  {
    std::lock_guard lock(impl.lifeMu);
    const auto it = impl.files.find(path);
    if (it == impl.files.end()) return std::nullopt;
    life = it->second.life;
  }
  life.dramBlocks = impl.dram.CountBlocks(path);
  {
    std::lock_guard lock(impl.diskMu);
    const auto it = impl.diskFiles.find(path);
    life.diskBlocks = it == impl.diskFiles.end() ? 0 : it->second.size();
  }
  return life;
}

std::size_t TieredBlockCache::PendingTierOps() const {
  return impl_->pendingOps.load(std::memory_order_acquire);
}

}  // namespace scalla::pcache
