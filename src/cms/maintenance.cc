#include "cms/maintenance.h"

#include <utility>

namespace scalla::cms {

MaintenanceDriver::MaintenanceDriver(const CmsConfig& config, sched::Executor& executor,
                                     LocationCache& cache, FastResponseQueue& respq,
                                     Membership& membership)
    : config_(config),
      executor_(executor),
      cache_(cache),
      respq_(respq),
      membership_(membership) {
  respq_.SetBusyNotifier([this] {
    if (running_) StartSweepTimer();
  });
}

MaintenanceDriver::~MaintenanceDriver() {
  Stop();
  respq_.SetBusyNotifier(nullptr);
}

void MaintenanceDriver::Start(const Options& options, DropHandler onDrop) {
  if (running_) return;
  running_ = true;
  onDrop_ = std::move(onDrop);
  if (options.windowTick) {
    windowTimer_ = executor_.RunEvery(config_.WindowTick(), [this] {
      ++stats_.windowTicks;
      if (auto purge = cache_.OnWindowTick()) executor_.Post(std::move(purge));
    });
  }
  if (options.dropScan) {
    dropTimer_ = executor_.RunEvery(config_.dropDelay / 4, [this] {
      ++stats_.dropScans;
      for (const ServerSlot slot : membership_.DropExpired()) {
        ++stats_.membersDropped;
        if (onDrop_) onDrop_(slot);
      }
    });
  }
  // Anchors may already be busy from before Start (e.g. a node restart);
  // the busy notifier only fires on 0→1 transitions, so check now.
  if (!respq_.Empty()) StartSweepTimer();
}

void MaintenanceDriver::Stop() {
  for (sched::TimerId* id : {&windowTimer_, &sweepTimer_, &dropTimer_}) {
    if (*id != sched::kInvalidTimer) {
      executor_.Cancel(*id);
      *id = sched::kInvalidTimer;
    }
  }
  running_ = false;
}

void MaintenanceDriver::ExportMetrics(obs::MetricsSnapshot& snap) const {
  snap.AddCounter("maintenance.window_ticks", stats_.windowTicks);
  snap.AddCounter("maintenance.sweeps", stats_.sweeps);
  snap.AddCounter("maintenance.drop_scans", stats_.dropScans);
  snap.AddCounter("maintenance.members_dropped", stats_.membersDropped);
}

void MaintenanceDriver::StartSweepTimer() {
  if (sweepTimer_ != sched::kInvalidTimer) return;
  sweepTimer_ = executor_.RunEvery(config_.sweepPeriod, [this] {
    ++stats_.sweeps;
    respq_.Sweep();
    if (respq_.Empty() && sweepTimer_ != sched::kInvalidTimer) {
      executor_.Cancel(sweepTimer_);
      sweepTimer_ = sched::kInvalidTimer;
    }
  });
}

}  // namespace scalla::cms
