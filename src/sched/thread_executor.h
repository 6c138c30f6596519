// The real-time event loop. One dispatch thread blocks in epoll_pwait2
// (a nanosecond timeout, so timers keep sub-millisecond precision) and,
// each round, runs the tasks that were queued when the round started, then
// the fd events that are ready, then the timers that are due. Each node in
// a threaded (TCP) cluster owns one ThreadExecutor, giving the node's
// logic serialized execution — the actor-style equivalent of the paper's
// "avoid locks whenever possible" — and net::TcpFabric places that node's
// sockets on the same loop, so a frame is read, decoded and handled on one
// thread. TcpFabric keeps a small pool of these loops for endpoints that
// bring no ThreadExecutor of their own.
//
// Ownership and threading rules:
//   - Post, RunAfter, RunEvery, RunAt, Cancel, RunSync and Stop are safe
//     from any thread. Post writes the wake eventfd only while the loop is
//     blocked in epoll_pwait2; a task posted mid-round runs next round;
//   - Add, Mod and Del (the fd-handler surface) belong to the loop thread,
//     or to whoever tears down once the loop has stopped;
//   - handlers are dispatched by a monotonically increasing id (never a
//     raw pointer), so a handler removed mid-round cannot be reached by a
//     stale event, even if its fd number is reused at once;
//   - a task, timer or handler that blocks stalls every fd on the loop;
//   - destroying a loop that still has fds registered aborts with a
//     message: their owner must Del them first (TcpFabric does so in
//     Unregister and in its destructor).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/executor.h"

namespace scalla::sched {

/// A readiness callback registered on a ThreadExecutor. `events` is the
/// epoll event mask (EPOLLIN / EPOLLOUT / EPOLLERR / EPOLLHUP bits).
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void OnEvents(std::uint32_t events) = 0;
};

/// True when the calling thread is a ThreadExecutor's dispatch thread and
/// that loop still has work in its round: queued tasks, ready events not
/// yet dispatched, or input the running handler declared buffered (see
/// NoteBufferedInput). Lets a producer on a busy loop leave work for a
/// batching consumer instead of paying a per-item cost inline (TcpFabric's
/// write-through send). False on any other thread.
bool CallerHasBacklog();

/// Declares, for the rest of the running handler callback, whether it
/// holds more input to deliver (a complete frame buffered behind the one
/// being handled). Counts toward CallerHasBacklog; no effect off a loop.
void NoteBufferedInput(bool more);

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

  /// Runs `task` once at (or just after) `when` on clock().
  TimerId RunAt(TimePoint when, Task task);

  /// Runs `task` on the dispatch thread and waits for it to finish. Runs
  /// inline when called on the dispatch thread, and once the loop has
  /// stopped (teardown), so it never waits on a loop that will not run.
  void RunSync(Task task);

  /// Requests shutdown and joins the dispatch thread. Pending tasks and
  /// timers are dropped; a running task completes. Called on the dispatch
  /// thread it does not join: the loop exits when that task returns.
  /// Idempotent.
  void Stop();

  /// True when called from the dispatch thread (for assertions).
  bool InDispatchThread() const;

  // ---- fd handlers: dispatch thread, or any thread after Stop ----

  /// Registers `fd` for `events`; returns the dispatch id. The loop holds
  /// a shared_ptr so the handler outlives any in-flight dispatch.
  std::uint64_t Add(int fd, std::uint32_t events, std::shared_ptr<EventHandler> handler);
  /// Changes the interest set of a registered fd.
  void Mod(std::uint64_t id, std::uint32_t events);
  /// Deregisters; the caller still owns (and closes) the fd afterwards.
  void Del(std::uint64_t id);

 private:
  struct Timer {
    TimerId id;
    Duration period;  // zero => one-shot
    Task task;
  };
  struct Registration {
    int fd = -1;
    std::shared_ptr<EventHandler> handler;
  };

  friend bool CallerHasBacklog();
  friend void NoteBufferedInput(bool more);

  void Run();
  void RunDueTimers();
  TimerId AddTimer(TimePoint due, Duration period, Task task);
  void Wake();

  util::SystemClock clock_;
  int epollFd_ = -1;
  int wakeFd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable syncCv_;  // a RunSync task finished, or the loop exited
  std::vector<Task> tasks_;         // posted, not yet taken by a round
  std::multimap<TimePoint, Timer> timers_;
  TimerId nextTimerId_ = 1;
  bool sleeping_ = false;     // blocked in epoll_pwait2: a Post must wake it
  bool wakePending_ = false;  // an eventfd write the loop has not read yet
  bool exited_ = false;       // the dispatch thread left Run()
  // Written under mu_; read without it where a stale value is harmless.
  std::atomic<bool> stop_{false};
  // tasks_.size(), published for CallerHasBacklog's lock-free read.
  std::atomic<std::size_t> posted_{0};

  // Dispatch-thread state.
  std::unordered_map<std::uint64_t, Registration> handlers_;
  std::uint64_t nextHandlerId_ = 1;  // 0 is the wake eventfd
  std::size_t batchLeft_ = 0;        // this round's tasks not yet run
  std::size_t readyLeft_ = 0;        // this round's fd events not yet dispatched
  bool bufferedInput_ = false;       // see NoteBufferedInput

  std::thread thread_;  // last: starts after every member it uses
};

}  // namespace scalla::sched
