#include "pcache/block_cache.h"

#include <algorithm>

namespace scalla::pcache {

BlockCache::BlockCache(const BlockCacheConfig& config)
    : config_(config), shards_(std::max<std::size_t>(config.shards, 1)) {}

BlockCache::Shard& BlockCache::ShardOf(const std::string& path, std::uint64_t index) {
  const std::size_t h = std::hash<std::string>{}(path) ^ (index * 0x9E3779B97F4A7C15ull);
  return shards_[h % shards_.size()];
}

const BlockCache::Shard& BlockCache::ShardOf(const std::string& path,
                                             std::uint64_t index) const {
  const std::size_t h = std::hash<std::string>{}(path) ^ (index * 0x9E3779B97F4A7C15ull);
  return shards_[h % shards_.size()];
}

std::optional<std::string> BlockCache::Lookup(const std::string& path,
                                              std::uint64_t index) {
  Shard& shard = ShardOf(path, index);
  std::lock_guard lock(shard.mu);
  const auto fileIt = shard.files.find(path);
  if (fileIt == shard.files.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const auto it = fileIt->second.find(index);
  if (it == fileIt->second.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Entry& e = it->second;
  e.stamp = nextStamp_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.end(), shard.lru, e.lruIt);  // bump to freshest
  hits_.fetch_add(1, std::memory_order_relaxed);
  return e.data;
}

bool BlockCache::Contains(const std::string& path, std::uint64_t index) const {
  const Shard& shard = ShardOf(path, index);
  std::lock_guard lock(shard.mu);
  const auto fileIt = shard.files.find(path);
  return fileIt != shard.files.end() && fileIt->second.count(index) != 0;
}

void BlockCache::Insert(const std::string& path, std::uint64_t index,
                        std::string data, bool pinned) {
  {
    Shard& shard = ShardOf(path, index);
    std::lock_guard lock(shard.mu);
    auto& perFile = shard.files[path];
    const auto it = perFile.find(index);
    if (it != perFile.end()) {
      // Replace in place; recency bumps like a hit.
      Entry& e = it->second;
      usedBytes_.fetch_sub(e.data.size(), std::memory_order_relaxed);
      usedBytes_.fetch_add(data.size(), std::memory_order_relaxed);
      e.data = std::move(data);
      e.stamp = nextStamp_.fetch_add(1, std::memory_order_relaxed);
      if (pinned) ++e.pins;
      shard.lru.splice(shard.lru.end(), shard.lru, e.lruIt);
    } else {
      Entry e;
      e.stamp = nextStamp_.fetch_add(1, std::memory_order_relaxed);
      e.pins = pinned ? 1 : 0;
      usedBytes_.fetch_add(data.size(), std::memory_order_relaxed);
      blockCount_.fetch_add(1, std::memory_order_relaxed);
      shard.lru.push_back(BlockKey{path, index});
      e.lruIt = std::prev(shard.lru.end());
      e.data = std::move(data);
      perFile.emplace(index, std::move(e));
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  const auto high =
      static_cast<std::uint64_t>(config_.highWatermark *
                                 static_cast<double>(config_.capacityBytes));
  if (usedBytes_.load(std::memory_order_relaxed) > high) EvictToLowWatermark();
}

void BlockCache::EvictToLowWatermark() {
  // One sweep at a time: concurrent inserters queue here rather than
  // racing each other over the same victims.
  std::lock_guard evictLock(evictMu_);
  const auto low = static_cast<std::uint64_t>(
      config_.lowWatermark * static_cast<double>(config_.capacityBytes));

  // Victim = globally oldest unpinned block, by the global stamp: cache
  // each shard's oldest unpinned candidate and take the minimum stamp
  // across shards. A shard's candidate only changes when this sweep evicts
  // from it (or a concurrent touch invalidates the cached stamp, caught by
  // re-validation below), so the sweep locks one shard per eviction
  // instead of re-scanning all of them — a burst of E evictions costs
  // O(shards + E) lock rounds, and recency stays globally ordered even
  // though each shard keeps its own LRU list.
  struct Candidate {
    bool valid = false;
    BlockKey key;
    std::uint64_t stamp = 0;
  };
  std::vector<Candidate> candidates(shards_.size());
  const auto refresh = [&](std::size_t s) {
    Candidate c;
    Shard& shard = shards_[s];
    std::lock_guard lock(shard.mu);
    for (const BlockKey& key : shard.lru) {
      const Entry& e = shard.files.at(key.path).at(key.index);
      if (e.pins > 0) continue;  // pinned: skip, try the next-oldest
      c.valid = true;
      c.key = key;
      c.stamp = e.stamp;
      break;  // shard's LRU order == stamp order; first unpinned is oldest
    }
    candidates[s] = c;
  };
  for (std::size_t s = 0; s < shards_.size(); ++s) refresh(s);

  while (usedBytes_.load(std::memory_order_relaxed) > low) {
    std::size_t victim = shards_.size();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!candidates[s].valid) continue;
      if (victim == shards_.size() || candidates[s].stamp < candidates[victim].stamp) {
        victim = s;
      }
    }
    if (victim == shards_.size()) return;  // everything left is pinned
    const Candidate cand = candidates[victim];
    EvictedBlock evicted;
    bool taken = false;
    {
      Shard& shard = shards_[victim];
      std::lock_guard lock(shard.mu);
      const auto fileIt = shard.files.find(cand.key.path);
      if (fileIt != shard.files.end()) {
        const auto it = fileIt->second.find(cand.key.index);
        if (it != fileIt->second.end() && it->second.pins == 0 &&
            it->second.stamp == cand.stamp) {
          usedBytes_.fetch_sub(it->second.data.size(), std::memory_order_relaxed);
          blockCount_.fetch_sub(1, std::memory_order_relaxed);
          evictions_.fetch_add(1, std::memory_order_relaxed);
          shard.lru.erase(it->second.lruIt);
          evicted.key = cand.key;
          evicted.data = std::move(it->second.data);
          taken = true;
          fileIt->second.erase(it);
          if (fileIt->second.empty()) shard.files.erase(fileIt);
        }
      }
    }
    // Touched, purged, or pinned between peek and take: re-peek the shard.
    refresh(victim);
    if (!taken) continue;
    if (evictionSink_) evictionSink_(std::move(evicted));
  }
}

bool BlockCache::Pin(const std::string& path, std::uint64_t index) {
  Shard& shard = ShardOf(path, index);
  std::lock_guard lock(shard.mu);
  const auto fileIt = shard.files.find(path);
  if (fileIt == shard.files.end()) return false;
  const auto it = fileIt->second.find(index);
  if (it == fileIt->second.end()) return false;
  ++it->second.pins;
  return true;
}

void BlockCache::Unpin(const std::string& path, std::uint64_t index) {
  Shard& shard = ShardOf(path, index);
  std::lock_guard lock(shard.mu);
  const auto fileIt = shard.files.find(path);
  if (fileIt == shard.files.end()) return;
  const auto it = fileIt->second.find(index);
  if (it == fileIt->second.end()) return;
  if (it->second.pins > 0) --it->second.pins;
}

std::uint64_t BlockCache::Purge(const std::string& path) {
  std::uint64_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    const auto fileIt = shard.files.find(path);
    if (fileIt == shard.files.end()) continue;
    for (auto it = fileIt->second.begin(); it != fileIt->second.end();) {
      if (it->second.pins > 0) {
        ++it;
        continue;
      }
      usedBytes_.fetch_sub(it->second.data.size(), std::memory_order_relaxed);
      blockCount_.fetch_sub(1, std::memory_order_relaxed);
      shard.lru.erase(it->second.lruIt);
      it = fileIt->second.erase(it);
      ++dropped;
    }
    if (fileIt->second.empty()) shard.files.erase(fileIt);
  }
  return dropped;
}

std::uint64_t BlockCache::PurgeAll() {
  std::uint64_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (auto fileIt = shard.files.begin(); fileIt != shard.files.end();) {
      for (auto it = fileIt->second.begin(); it != fileIt->second.end();) {
        if (it->second.pins > 0) {
          ++it;
          continue;
        }
        usedBytes_.fetch_sub(it->second.data.size(), std::memory_order_relaxed);
        blockCount_.fetch_sub(1, std::memory_order_relaxed);
        shard.lru.erase(it->second.lruIt);
        it = fileIt->second.erase(it);
        ++dropped;
      }
      if (fileIt->second.empty()) {
        fileIt = shard.files.erase(fileIt);
      } else {
        ++fileIt;
      }
    }
  }
  return dropped;
}

BlockCacheStats BlockCache::GetStats() const {
  BlockCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.usedBytes = usedBytes_.load(std::memory_order_relaxed);
  s.blockCount = blockCount_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t BlockCache::UsedBytes() const {
  return usedBytes_.load(std::memory_order_relaxed);
}

std::uint64_t BlockCache::CountBlocks(const std::string& path) const {
  std::uint64_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    const auto fileIt = shard.files.find(path);
    if (fileIt != shard.files.end()) n += fileIt->second.size();
  }
  return n;
}

// --------------------------------------------------------- SingleFlight

std::string SingleFlight::Key(const std::string& path, std::uint64_t index) {
  return path + '\0' + std::to_string(index);
}

bool SingleFlight::Begin(const std::string& path, std::uint64_t index, Waiter waiter) {
  std::lock_guard lock(mu_);
  const auto [it, inserted] = inflight_.try_emplace(Key(path, index));
  it->second.push_back(std::move(waiter));
  if (!inserted) coalesced_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

bool SingleFlight::TryOwn(const std::string& path, std::uint64_t index) {
  std::lock_guard lock(mu_);
  return inflight_.try_emplace(Key(path, index)).second;
}

void SingleFlight::Complete(const std::string& path, std::uint64_t index,
                            proto::XrdErr err, std::string data) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard lock(mu_);
    const auto it = inflight_.find(Key(path, index));
    if (it == inflight_.end()) return;
    waiters = std::move(it->second);
    inflight_.erase(it);
  }
  for (std::size_t i = 0; i + 1 < waiters.size(); ++i) waiters[i](err, data);
  if (!waiters.empty()) waiters.back()(err, std::move(data));
}

std::size_t SingleFlight::InFlight() const {
  std::lock_guard lock(mu_);
  return inflight_.size();
}

}  // namespace scalla::pcache
