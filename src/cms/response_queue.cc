#include "cms/response_queue.h"

#include <utility>

namespace scalla::cms {

FastResponseQueue::FastResponseQueue(const CmsConfig& config, util::Clock& clock)
    : config_(config), clock_(clock) {
  anchors_.resize(config_.responseAnchors);
  freeSlots_.reserve(config_.responseAnchors);
  for (std::size_t i = config_.responseAnchors; i-- > 0;) {
    freeSlots_.push_back(static_cast<std::int32_t>(i));
  }
}

std::optional<RespSlotRef> FastResponseQueue::Add(RespSlotRef existing, RespCallback waiter,
                                                  ServerSlot avoid) {
  bool becameBusy = false;
  std::optional<RespSlotRef> out;
  {
    std::lock_guard lock(mu_);
    ++stats_.adds;

    // Join the existing anchor when the association is still valid.
    if (existing.IsSet() &&
        static_cast<std::size_t>(existing.slot) < anchors_.size()) {
      Anchor& a = anchors_[existing.slot];
      if (a.inUse && a.epoch == existing.epoch) {
        a.waiters.push_back(Waiter{std::move(waiter), avoid});
        ++stats_.joins;
        return existing;
      }
    }

    if (freeSlots_.empty()) {
      ++stats_.rejectedFull;
      return std::nullopt;  // caller imposes the full delay
    }
    const std::int32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    Anchor& a = anchors_[slot];
    a.inUse = true;
    a.enqueueTime = clock_.Now();
    a.waiters.clear();
    a.waiters.push_back(Waiter{std::move(waiter), avoid});
    becameBusy = inUse_ == 0;
    ++inUse_;
    out = RespSlotRef{slot, a.epoch};
  }
  if (becameBusy && busyNotifier_) busyNotifier_();
  return out;
}

std::size_t FastResponseQueue::Release(RespSlotRef ref, ServerSlot server, bool pending) {
  std::vector<RespCallback> released;
  {
    std::lock_guard lock(mu_);
    if (!ref.IsSet() || static_cast<std::size_t>(ref.slot) >= anchors_.size()) return 0;
    Anchor& a = anchors_[ref.slot];
    if (!a.inUse || a.epoch != ref.epoch) return 0;  // stale: loose coupling
    // Waiters avoiding this server stay parked (client recovery must not
    // be vectored back to the host it just failed against); they are
    // satisfied by the next responder or expired by the sweep.
    std::vector<Waiter> kept;
    for (auto& w : a.waiters) {
      if (w.avoid == server) {
        kept.push_back(std::move(w));
      } else {
        released.push_back(std::move(w.cb));
      }
    }
    a.waiters = std::move(kept);
    if (a.waiters.empty()) {
      a.inUse = false;
      ++a.epoch;
      freeSlots_.push_back(ref.slot);
      --inUse_;
    }
    stats_.releases += released.size();
  }
  const RespOutcome outcome{RespStatus::kRedirect, server, pending};
  for (auto& cb : released) cb(outcome);
  return released.size();
}

std::size_t FastResponseQueue::Sweep() {
  std::vector<RespCallback> expired;
  {
    std::lock_guard lock(mu_);
    const TimePoint cutoff = clock_.Now() - config_.sweepPeriod;
    for (std::size_t i = 0; i < anchors_.size() && inUse_ > 0; ++i) {
      Anchor& a = anchors_[i];
      if (!a.inUse || a.enqueueTime > cutoff) continue;
      for (auto& w : a.waiters) expired.push_back(std::move(w.cb));
      a.waiters.clear();
      a.inUse = false;
      ++a.epoch;  // invalidate the cache association
      freeSlots_.push_back(static_cast<std::int32_t>(i));
      --inUse_;
    }
    stats_.expirations += expired.size();
  }
  const RespOutcome outcome{RespStatus::kRetryFullDelay, -1, false};
  for (auto& cb : expired) cb(outcome);
  return expired.size();
}

bool FastResponseQueue::Empty() const {
  std::lock_guard lock(mu_);
  return inUse_ == 0;
}

FastResponseQueue::Stats FastResponseQueue::GetStats() const {
  std::lock_guard lock(mu_);
  Stats s = stats_;
  s.anchorsInUse = inUse_;
  return s;
}

void FastResponseQueue::ExportMetrics(obs::MetricsSnapshot& snap) const {
  const Stats s = GetStats();
  snap.AddCounter("respq.adds", s.adds);
  snap.AddCounter("respq.joins", s.joins);
  snap.AddCounter("respq.releases", s.releases);
  snap.AddCounter("respq.expirations", s.expirations);
  snap.AddCounter("respq.rejected_full", s.rejectedFull);
  snap.AddGauge("respq.anchors_in_use", static_cast<std::int64_t>(s.anchorsInUse));
}

}  // namespace scalla::cms
