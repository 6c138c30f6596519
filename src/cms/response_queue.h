// Fast response queue (paper section III-B). With the request-rarely-
// respond protocol a non-response means "no", so a client querying an
// unknown file would have to wait the full delay (5 s). The fast response
// queue lowers that to roughly the fastest server's response time: the
// client is parked on one of 1024 anchors; when a server's "I have it"
// arrives (typically ~100 us), every parked client is released with the
// redirect immediately. A sweep clocked at 133 ms expires anchors whose
// requests were not satisfied, imposing the full delay only then.
//
// The queue is *loosely coupled* to the location cache: a location object
// stores only (anchor index, epoch); the sweep invalidates an anchor by
// bumping its epoch, never touching the cache, and cache-side references
// are validated by epoch comparison — the two structures "independently
// execute their functions".
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "cms/location_cache.h"  // RespSlotRef
#include "cms/types.h"
#include "obs/snapshot.h"
#include "util/clock.h"

namespace scalla::cms {

enum class RespStatus {
  kRedirect,        // a server announced the file; go there
  kRetryFullDelay,  // not satisfied within the sweep bound; wait full delay
};

struct RespOutcome {
  RespStatus status = RespStatus::kRetryFullDelay;
  ServerSlot server = -1;  // valid for kRedirect
  bool pending = false;    // target is still staging the file
};

using RespCallback = std::function<void(const RespOutcome&)>;

class FastResponseQueue {
 public:
  FastResponseQueue(const CmsConfig& config, util::Clock& clock);

  /// Parks a waiter. If `existing` still names a live anchor the waiter
  /// joins it (several clients asking for one file share an anchor);
  /// otherwise a fresh anchor is allocated. Returns the anchor reference
  /// the caller must store back into the location object, or std::nullopt
  /// when all anchors are busy — the paper then tells the client to wait a
  /// full time period and retry. A waiter parked during client recovery
  /// (section III-C1) names the server it is avoiding: that server's
  /// announcement must not satisfy it.
  std::optional<RespSlotRef> Add(RespSlotRef existing, RespCallback waiter,
                                 ServerSlot avoid = -1);

  /// Releases every waiter parked on `ref` with a redirect to `server`,
  /// except waiters avoiding `server` — those stay parked for the next
  /// responder (or the sweep). The anchor is freed only when no waiters
  /// remain. Stale references are ignored (loose coupling). Waiter
  /// callbacks run synchronously in the caller; they must be cheap or
  /// re-post. Returns the number of waiters released.
  std::size_t Release(RespSlotRef ref, ServerSlot server, bool pending);

  /// Expires anchors older than the sweep period, notifying their waiters
  /// with kRetryFullDelay and invalidating the cache association (epoch
  /// bump). Call every CmsConfig::sweepPeriod while the queue is busy.
  /// Returns the number of waiters expired.
  std::size_t Sweep();

  bool Empty() const;

  /// Invoked (without internal locks held) whenever the queue transitions
  /// empty -> non-empty, so the owner can start the sweep timer. The paper
  /// notifies the response thread "only if the queue was empty".
  void SetBusyNotifier(std::function<void()> notifier) { busyNotifier_ = std::move(notifier); }

  struct Stats {
    std::size_t adds = 0;
    std::size_t joins = 0;      // added to an existing anchor
    std::size_t releases = 0;   // waiters satisfied by a server response
    std::size_t expirations = 0;  // waiters that hit the sweep bound
    std::size_t rejectedFull = 0;  // no free anchor: immediate full delay
    std::size_t anchorsInUse = 0;
  };
  Stats GetStats() const;
  /// Writes the respq.* metrics.
  void ExportMetrics(obs::MetricsSnapshot& snap) const;

 private:
  struct Waiter {
    RespCallback cb;
    ServerSlot avoid = -1;  // never redirect this waiter there
  };
  struct Anchor {
    std::uint32_t epoch = 1;
    bool inUse = false;
    TimePoint enqueueTime{};
    std::vector<Waiter> waiters;
  };

  const CmsConfig config_;
  util::Clock& clock_;
  std::function<void()> busyNotifier_;

  mutable std::mutex mu_;
  std::vector<Anchor> anchors_;
  std::vector<std::int32_t> freeSlots_;
  std::size_t inUse_ = 0;
  mutable Stats stats_;
};

}  // namespace scalla::cms
