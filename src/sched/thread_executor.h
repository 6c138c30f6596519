// Single-threaded real-time executor: one dispatch thread drains posted
// tasks and due timers in order. Each node in a threaded (TCP) cluster owns
// one ThreadExecutor, giving the node's logic serialized execution — the
// actor-style equivalent of the paper's "avoid locks whenever possible".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "sched/executor.h"

namespace scalla::sched {

/// True when the calling thread is a ThreadExecutor's dispatch thread and
/// that executor has further tasks queued behind the one running. Lets a
/// producer on a busy node leave work for a batching consumer instead of
/// paying a per-item cost inline (TcpFabric's write-through send). False
/// on any other thread.
bool CallerHasBacklog();

class ThreadExecutor final : public Executor {
 public:
  ThreadExecutor();
  ~ThreadExecutor() override;

  ThreadExecutor(const ThreadExecutor&) = delete;
  ThreadExecutor& operator=(const ThreadExecutor&) = delete;

  void Post(Task task) override;
  TimerId RunAfter(Duration delay, Task task) override;
  TimerId RunEvery(Duration period, Task task) override;
  bool Cancel(TimerId id) override;
  util::Clock& clock() override { return clock_; }

  /// Requests shutdown and joins the dispatch thread. Pending tasks are
  /// dropped; running task completes. Idempotent.
  void Stop();

  /// True when called from the dispatch thread (for assertions).
  bool InDispatchThread() const;

 private:
  struct Timer {
    TimerId id;
    TimePoint due;
    Duration period;  // zero => one-shot
    Task task;
  };

  friend bool CallerHasBacklog();

  void Run();
  TimerId AddTimer(Duration delay, Duration period, Task task);

  util::SystemClock clock_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  // tasks_.size(), published for CallerHasBacklog's lock-free read.
  std::atomic<std::size_t> queued_{0};
  std::multimap<TimePoint, Timer> timers_;
  std::uint64_t nextTimerId_ = 1;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace scalla::sched
