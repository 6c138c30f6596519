#include "sched/thread_executor.h"

#include <utility>
#include <vector>

namespace scalla::sched {
namespace {

// The executor whose dispatch thread this is; null on every other thread.
thread_local const ThreadExecutor* tlsRunning = nullptr;

}  // namespace

bool CallerHasBacklog() {
  const ThreadExecutor* running = tlsRunning;
  return running != nullptr && running->queued_.load(std::memory_order_relaxed) > 0;
}

ThreadExecutor::ThreadExecutor() : thread_([this] { Run(); }) {}

ThreadExecutor::~ThreadExecutor() { Stop(); }

void ThreadExecutor::Post(Task task) {
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    tasks_.push_back(std::move(task));
    queued_.store(tasks_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
}

TimerId ThreadExecutor::AddTimer(Duration delay, Duration period, Task task) {
  TimerId id;
  {
    std::lock_guard lock(mu_);
    if (stopping_) return kInvalidTimer;
    id = nextTimerId_++;
    const TimePoint due = clock_.Now() + delay;
    timers_.emplace(due, Timer{id, due, period, std::move(task)});
  }
  cv_.notify_one();
  return id;
}

TimerId ThreadExecutor::RunAfter(Duration delay, Task task) {
  return AddTimer(delay, Duration::zero(), std::move(task));
}

TimerId ThreadExecutor::RunEvery(Duration period, Task task) {
  return AddTimer(period, period, std::move(task));
}

bool ThreadExecutor::Cancel(TimerId id) {
  std::lock_guard lock(mu_);
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->second.id == id) {
      timers_.erase(it);
      return true;
    }
  }
  return false;
}

void ThreadExecutor::Stop() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    tasks_.clear();
    queued_.store(0, std::memory_order_relaxed);
    timers_.clear();
  }
  cv_.notify_one();
  if (thread_.joinable() && thread_.get_id() != std::this_thread::get_id()) {
    thread_.join();
  }
}

bool ThreadExecutor::InDispatchThread() const {
  return std::this_thread::get_id() == thread_.get_id();
}

void ThreadExecutor::Run() {
  tlsRunning = this;
  std::unique_lock lock(mu_);
  while (!stopping_) {
    const TimePoint now = clock_.Now();

    // Fire all due timers.
    while (!timers_.empty() && timers_.begin()->first <= now) {
      auto node = timers_.extract(timers_.begin());
      Timer timer = std::move(node.mapped());
      if (timer.period > Duration::zero()) {
        Timer repeat = timer;  // re-arm before running so Cancel works inside
        repeat.due = now + timer.period;
        timers_.emplace(repeat.due, std::move(repeat));
      }
      lock.unlock();
      timer.task();
      lock.lock();
      if (stopping_) return;
    }

    if (!tasks_.empty()) {
      Task task = std::move(tasks_.front());
      tasks_.pop_front();
      queued_.store(tasks_.size(), std::memory_order_relaxed);
      lock.unlock();
      task();
      lock.lock();
      continue;
    }

    if (timers_.empty()) {
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty() || !timers_.empty(); });
    } else {
      cv_.wait_until(lock, std::chrono::time_point_cast<std::chrono::steady_clock::duration>(
                               timers_.begin()->first));
    }
  }
}

}  // namespace scalla::sched
