// Block cache for the proxy tier: fixed-size blocks keyed by (path, block
// index), sharded for lock spread, with strict global LRU eviction driven
// by high/low watermarks — the XCache/PFC design: inserts are cheap until
// used bytes cross the high watermark, then the cache evicts oldest-first
// down to the low watermark so eviction runs in bursts instead of on every
// insert. Pinned blocks (mid-insert, mid-read-ahead) are never evicted.
//
// SingleFlight coalesces concurrent misses on the same block: the first
// requester becomes the fetch owner, later requesters queue behind it and
// share the one origin fetch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "proto/messages.h"

namespace scalla::pcache {

struct BlockCacheConfig {
  std::uint32_t blockSize = 64 * 1024;       // bytes per cache block
  std::uint64_t capacityBytes = 64 * 1024 * 1024;
  double highWatermark = 0.95;               // start evicting above this
  double lowWatermark = 0.80;                // evict down to this
  std::size_t shards = 8;
};

/// Identifies one cached block of one file.
struct BlockKey {
  std::string path;
  std::uint64_t index = 0;

  bool operator==(const BlockKey&) const = default;
};

struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t usedBytes = 0;
  std::uint64_t blockCount = 0;
};

/// One block removed by the watermark sweep, handed to the eviction sink
/// (the tiered cache spills these to disk instead of dropping them).
struct EvictedBlock {
  BlockKey key;
  std::string data;
  int pins = 0;  // always 0: pinned blocks are never evicted
};

class BlockCache {
 public:
  explicit BlockCache(const BlockCacheConfig& config);

  std::uint32_t BlockSize() const { return config_.blockSize; }

  /// Cache hit: returns the block's bytes and bumps its recency.
  /// Miss returns nullopt. Both outcomes count toward hit/miss stats.
  std::optional<std::string> Lookup(const std::string& path, std::uint64_t index);

  /// Recency- and stats-neutral presence probe (read-ahead planning).
  bool Contains(const std::string& path, std::uint64_t index) const;

  /// Stores a block (replacing any previous copy), then evicts down to the
  /// low watermark if used bytes crossed the high watermark. With
  /// pinned=true the block enters pinned and must be Unpin()ed.
  void Insert(const std::string& path, std::uint64_t index, std::string data,
              bool pinned = false);

  /// Pins a resident block against eviction. Returns false on miss.
  bool Pin(const std::string& path, std::uint64_t index);
  void Unpin(const std::string& path, std::uint64_t index);

  /// Drops every block of `path`; returns how many were dropped. Pinned
  /// blocks survive (a fetch in flight keeps its block).
  std::uint64_t Purge(const std::string& path);
  std::uint64_t PurgeAll();

  BlockCacheStats GetStats() const;
  std::uint64_t UsedBytes() const;

  /// Blocks of `path` currently resident (lifecycle accounting).
  std::uint64_t CountBlocks(const std::string& path) const;

  /// Watermark-eviction victims are handed to `sink` (with their bytes)
  /// instead of being silently dropped; the tiered cache uses this to
  /// spill DRAM victims to the disk tier. The sink runs outside every
  /// shard lock (but under the sweep lock, so sinks never overlap). Set
  /// once, before the cache sees concurrent traffic.
  void SetEvictionSink(std::function<void(EvictedBlock)> sink) {
    evictionSink_ = std::move(sink);
  }

 private:
  struct Entry {
    std::string data;
    std::uint64_t stamp = 0;    // global LRU recency; larger = fresher
    int pins = 0;
    std::list<BlockKey>::iterator lruIt;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::map<std::uint64_t, Entry>> files;
    std::list<BlockKey> lru;    // front = oldest within this shard
  };

  Shard& ShardOf(const std::string& path, std::uint64_t index);
  const Shard& ShardOf(const std::string& path, std::uint64_t index) const;
  void EvictToLowWatermark();

  BlockCacheConfig config_;
  std::vector<Shard> shards_;
  std::mutex evictMu_;  // serializes watermark eviction sweeps
  std::function<void(EvictedBlock)> evictionSink_;

  std::atomic<std::uint64_t> nextStamp_{1};
  std::atomic<std::uint64_t> usedBytes_{0};
  std::atomic<std::uint64_t> blockCount_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Deduplicates concurrent fetches of the same block. The first Begin()
/// for a key returns true (the caller owns the origin fetch); later calls
/// enqueue their waiter and return false. Complete() delivers the outcome
/// to every queued waiter.
class SingleFlight {
 public:
  using Waiter = std::function<void(proto::XrdErr, std::string)>;

  /// Registers interest in (path, index). Returns true if the caller is
  /// now the fetch owner; false if a fetch is already in flight (the
  /// waiter fires on its completion).
  bool Begin(const std::string& path, std::uint64_t index, Waiter waiter);

  /// Owner-only variant for read-ahead: claims the key if nobody holds it,
  /// without queueing a waiter. Returns false if a fetch is in flight.
  bool TryOwn(const std::string& path, std::uint64_t index);

  /// Resolves the key, invoking all queued waiters (outside the lock). The
  /// last waiter gets `data` itself; any before it get a copy.
  void Complete(const std::string& path, std::uint64_t index, proto::XrdErr err,
                std::string data);

  /// How many Begin() calls piggybacked on an existing fetch.
  std::uint64_t Coalesced() const { return coalesced_.load(std::memory_order_relaxed); }

  /// Fetches currently in flight.
  std::size_t InFlight() const;

 private:
  static std::string Key(const std::string& path, std::uint64_t index);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<Waiter>> inflight_;
  std::atomic<std::uint64_t> coalesced_{0};
};

}  // namespace scalla::pcache
