#include "pcache/block_cache.h"

#include <algorithm>

namespace scalla::pcache {

BlockCache::BlockCache(const BlockCacheConfig& config) : config_(config) {}

BlockCache::Entry* BlockCache::Find(const std::string& path, std::uint64_t index) {
  const auto fileIt = files_.find(path);
  if (fileIt == files_.end()) return nullptr;
  const auto it = fileIt->second.find(index);
  return it == fileIt->second.end() ? nullptr : &it->second;
}

std::optional<std::string> BlockCache::Lookup(const std::string& path,
                                              std::uint64_t index) {
  std::lock_guard lock(mu_);
  Entry* e = Find(path, index);
  if (e == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  lru_.splice(lru_.end(), lru_, e->lruIt);  // bump to freshest
  hits_.fetch_add(1, std::memory_order_relaxed);
  return e->data;
}

bool BlockCache::Contains(const std::string& path, std::uint64_t index) const {
  std::lock_guard lock(mu_);
  const auto fileIt = files_.find(path);
  return fileIt != files_.end() && fileIt->second.count(index) != 0;
}

void BlockCache::Insert(const std::string& path, std::uint64_t index,
                        std::string data, bool pinned) {
  {
    std::lock_guard lock(mu_);
    auto& perFile = files_[path];
    const auto it = perFile.find(index);
    if (it != perFile.end()) {
      // Replace in place; recency bumps like a hit.
      Entry& e = it->second;
      usedBytes_.fetch_sub(e.data.size(), std::memory_order_relaxed);
      usedBytes_.fetch_add(data.size(), std::memory_order_relaxed);
      e.data = std::move(data);
      if (pinned) ++e.pins;
      lru_.splice(lru_.end(), lru_, e.lruIt);
    } else {
      Entry e;
      e.pins = pinned ? 1 : 0;
      usedBytes_.fetch_add(data.size(), std::memory_order_relaxed);
      blockCount_.fetch_add(1, std::memory_order_relaxed);
      lru_.push_back(BlockKey{path, index});
      e.lruIt = std::prev(lru_.end());
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
  while (usedBytes_.load(std::memory_order_relaxed) > low) {
    EvictedBlock evicted;
    {
      // Victim = the oldest unpinned block: the front of the LRU list,
      // past any pinned blocks.
      std::lock_guard lock(mu_);
      const auto victim = std::find_if(lru_.begin(), lru_.end(), [this](const BlockKey& key) {
        return Find(key.path, key.index)->pins == 0;
      });
      if (victim == lru_.end()) return;  // everything left is pinned
      const auto fileIt = files_.find(victim->path);
      const auto it = fileIt->second.find(victim->index);
      usedBytes_.fetch_sub(it->second.data.size(), std::memory_order_relaxed);
      blockCount_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      evicted.key = std::move(*victim);
      evicted.data = std::move(it->second.data);
      lru_.erase(victim);
      fileIt->second.erase(it);
      if (fileIt->second.empty()) files_.erase(fileIt);
    }
    if (evictionSink_) evictionSink_(std::move(evicted));
  }
}

bool BlockCache::Pin(const std::string& path, std::uint64_t index) {
  std::lock_guard lock(mu_);
  Entry* e = Find(path, index);
  if (e == nullptr) return false;
  ++e->pins;
  return true;
}

void BlockCache::Unpin(const std::string& path, std::uint64_t index) {
  std::lock_guard lock(mu_);
  Entry* e = Find(path, index);
  if (e != nullptr && e->pins > 0) --e->pins;
}

std::uint64_t BlockCache::PurgeFileLocked(FileMap::iterator fileIt) {
  std::uint64_t dropped = 0;
  for (auto it = fileIt->second.begin(); it != fileIt->second.end();) {
    if (it->second.pins > 0) {
      ++it;
      continue;
    }
    usedBytes_.fetch_sub(it->second.data.size(), std::memory_order_relaxed);
    blockCount_.fetch_sub(1, std::memory_order_relaxed);
    lru_.erase(it->second.lruIt);
    it = fileIt->second.erase(it);
    ++dropped;
  }
  return dropped;
}

std::uint64_t BlockCache::Purge(const std::string& path) {
  std::lock_guard lock(mu_);
  const auto fileIt = files_.find(path);
  if (fileIt == files_.end()) return 0;
  const std::uint64_t dropped = PurgeFileLocked(fileIt);
  if (fileIt->second.empty()) files_.erase(fileIt);
  return dropped;
}

std::uint64_t BlockCache::PurgeAll() {
  std::lock_guard lock(mu_);
  std::uint64_t dropped = 0;
  for (auto fileIt = files_.begin(); fileIt != files_.end();) {
    dropped += PurgeFileLocked(fileIt);
    fileIt = fileIt->second.empty() ? files_.erase(fileIt) : std::next(fileIt);
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
  std::lock_guard lock(mu_);
  const auto fileIt = files_.find(path);
  return fileIt == files_.end() ? 0 : fileIt->second.size();
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
