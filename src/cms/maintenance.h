// MaintenanceDriver: one object that owns the cmsd's periodic housekeeping —
// the cache window tick (amortized eviction, paper section III-A3), the
// fast-response-queue sweep (133 ms cadence, started only while anchors are
// busy), and the head's expired-member drop scan. Library users previously
// had to wire three timers by hand (and benches routinely forgot one);
// constructing a driver and calling Start() covers all of them.
#pragma once

#include <cstdint>
#include <functional>

#include "cms/location_cache.h"
#include "cms/membership.h"
#include "cms/response_queue.h"
#include "cms/types.h"
#include "obs/snapshot.h"
#include "sched/executor.h"

namespace scalla::cms {

class MaintenanceDriver {
 public:
  struct Options {
    bool windowTick = true;  // LocationCache::OnWindowTick every lifetime/64
    bool dropScan = false;   // Membership::DropExpired (cluster heads only)
  };

  /// Called once per slot that DropExpired removed, so the owner can clear
  /// any slot→address bookkeeping of its own.
  using DropHandler = std::function<void(ServerSlot)>;

  /// Wires itself as the queue's busy notifier: the sweep timer starts on
  /// the first Add and cancels itself once the queue drains.
  MaintenanceDriver(const CmsConfig& config, sched::Executor& executor,
                    LocationCache& cache, FastResponseQueue& respq,
                    Membership& membership);
  ~MaintenanceDriver();

  MaintenanceDriver(const MaintenanceDriver&) = delete;
  MaintenanceDriver& operator=(const MaintenanceDriver&) = delete;

  void Start(const Options& options, DropHandler onDrop = nullptr);
  void Stop();
  bool Running() const { return running_; }

  struct Stats {
    std::uint64_t windowTicks = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t dropScans = 0;
    std::uint64_t membersDropped = 0;
  };
  Stats GetStats() const { return stats_; }
  /// Writes the maintenance.* metrics.
  void ExportMetrics(obs::MetricsSnapshot& snap) const;

 private:
  void StartSweepTimer();

  const CmsConfig config_;
  sched::Executor& executor_;
  LocationCache& cache_;
  FastResponseQueue& respq_;
  Membership& membership_;

  bool running_ = false;
  DropHandler onDrop_;
  sched::TimerId windowTimer_ = sched::kInvalidTimer;
  sched::TimerId sweepTimer_ = sched::kInvalidTimer;
  sched::TimerId dropTimer_ = sched::kInvalidTimer;
  Stats stats_;
};

}  // namespace scalla::cms
