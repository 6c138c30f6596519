// SingleFlight coalesces concurrent misses on the same block: the first
// requester becomes the fetch owner, later requesters queue behind it and
// share the one origin fetch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "proto/messages.h"

namespace scalla::pcache {

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
