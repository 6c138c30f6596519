// Discrete-event simulation engine: a virtual clock plus an event queue.
// Implements sched::Executor so the cms/xrd node code runs unmodified with
// virtual time. Single-threaded by design: determinism is the point.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>

#include "sched/executor.h"
#include "util/clock.h"
#include "util/types.h"

namespace scalla::sim {

class SimClock final : public util::Clock {
 public:
  TimePoint Now() const override { return now_; }
  void Set(TimePoint t) { now_ = t; }

 private:
  TimePoint now_{};
};

class EventEngine final : public sched::Executor {
 public:
  EventEngine() = default;

  // ---- sched::Executor ----
  void Post(sched::Task task) override;
  sched::TimerId RunAfter(Duration delay, sched::Task task) override;
  sched::TimerId RunEvery(Duration period, sched::Task task) override;
  bool Cancel(sched::TimerId id) override;
  util::Clock& clock() override { return clock_; }

  // ---- simulation control ----
  /// Schedules `task` at absolute virtual time `at` (>= Now()).
  void ScheduleAt(TimePoint at, sched::Task task);

  /// Processes events until the queue is empty (periodic timers are paused
  /// during drain so they cannot run forever). Returns events processed.
  std::size_t RunUntilIdle();

  /// Advances virtual time to `deadline`, processing every event due in
  /// between (including periodic timers). Returns events processed.
  std::size_t RunUntil(TimePoint deadline);
  std::size_t RunFor(Duration d) { return RunUntil(clock_.Now() + d); }

  /// Processes events until `stop()` returns true or `deadline` passes.
  /// Returns true if the predicate was satisfied.
  bool RunUntilPredicate(const std::function<bool()>& stop, TimePoint deadline);

  TimePoint Now() const { return clock_.Now(); }
  std::uint64_t ProcessedEvents() const { return processed_; }

 private:
  struct Event {
    std::uint64_t id = 0;      // timer id; 0 for plain events
    Duration period{};         // repeat period; zero for one-shot
    sched::Task task;
  };

  bool RunOne();  // pops and runs the earliest event; false if none

  SimClock clock_;
  std::multimap<TimePoint, Event> events_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t nextTimerId_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t nonPeriodic_ = 0;  // pending one-shot events (idle detection)
};

}  // namespace scalla::sim
