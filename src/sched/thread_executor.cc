#include "sched/thread_executor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <utility>

namespace scalla::sched {
namespace {

// Upper bound on one epoll_pwait2 batch; level-triggered epoll re-reports
// anything a full batch leaves behind.
constexpr int kMaxEvents = 256;
constexpr std::uint64_t kWakeId = 0;  // the eventfd's dispatch id
constexpr Duration kMaxWait = std::chrono::seconds(60);

// The loop whose dispatch thread this is; null on every other thread.
thread_local ThreadExecutor* tlsRunning = nullptr;

}  // namespace

bool CallerHasBacklog() {
  const ThreadExecutor* loop = tlsRunning;
  return loop != nullptr && !loop->stop_.load(std::memory_order_relaxed) &&
         (loop->batchLeft_ > 0 || loop->readyLeft_ > 0 || loop->bufferedInput_ ||
          loop->posted_.load(std::memory_order_relaxed) > 0);
}

void NoteBufferedInput(bool more) {
  if (tlsRunning != nullptr) tlsRunning->bufferedInput_ = more;
}

ThreadExecutor::ThreadExecutor()
    : epollFd_(::epoll_create1(EPOLL_CLOEXEC)),
      wakeFd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (epollFd_ < 0 || wakeFd_ < 0 || ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) != 0) {
    std::fprintf(stderr, "ThreadExecutor: cannot create its epoll loop: %s\n",
                 std::strerror(errno));
    std::abort();
  }
  thread_ = std::thread([this] { Run(); });
}

ThreadExecutor::~ThreadExecutor() {
  Stop();
  if (!handlers_.empty()) {
    std::fprintf(stderr,
                 "ThreadExecutor destroyed while it still hosts %zu registered fd(s); "
                 "unregister every endpoint placed on it first\n",
                 handlers_.size());
    std::abort();
  }
  ::close(wakeFd_);
  ::close(epollFd_);
}

void ThreadExecutor::Wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void ThreadExecutor::Post(Task task) {
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) return;
    tasks_.push_back(std::move(task));
    posted_.store(tasks_.size(), std::memory_order_relaxed);
    wake = sleeping_ && !wakePending_;
    if (wake) wakePending_ = true;
  }
  if (wake) Wake();
}

TimerId ThreadExecutor::AddTimer(TimePoint due, Duration period, Task task) {
  TimerId id = kInvalidTimer;
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) return kInvalidTimer;
    id = nextTimerId_++;
    const auto it = timers_.emplace(due, Timer{id, period, std::move(task)});
    // Only a new earliest timer shortens the sleep the loop is in.
    wake = sleeping_ && !wakePending_ && it == timers_.begin();
    if (wake) wakePending_ = true;
  }
  if (wake) Wake();
  return id;
}

TimerId ThreadExecutor::RunAfter(Duration delay, Task task) {
  return AddTimer(clock_.Now() + delay, Duration::zero(), std::move(task));
}

TimerId ThreadExecutor::RunEvery(Duration period, Task task) {
  return AddTimer(clock_.Now() + period, period, std::move(task));
}

TimerId ThreadExecutor::RunAt(TimePoint when, Task task) {
  return AddTimer(when, Duration::zero(), std::move(task));
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

void ThreadExecutor::RunSync(Task task) {
  if (InDispatchThread()) {
    task();
    return;
  }
  bool done = false;
  {
    std::unique_lock lock(mu_);
    if (!stop_.load(std::memory_order_relaxed)) {
      tasks_.push_back([this, &task, &done] {
        task();
        std::lock_guard doneLock(mu_);
        done = true;
        syncCv_.notify_all();
      });
      posted_.store(tasks_.size(), std::memory_order_relaxed);
      if (sleeping_ && !wakePending_) {
        wakePending_ = true;
        Wake();
      }
    }
    // A Stop that drops the task still ends the loop, and then the caller
    // runs it: nothing else will touch the loop's state again.
    syncCv_.wait(lock, [&] { return done || exited_; });
    if (done) return;
  }
  task();
}

void ThreadExecutor::Stop() {
  std::vector<Task> tasks;
  std::multimap<TimePoint, Timer> timers;
  {
    std::lock_guard lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
    tasks.swap(tasks_);
    timers.swap(timers_);
    posted_.store(0, std::memory_order_relaxed);
  }
  Wake();
  if (thread_.joinable() && !InDispatchThread()) thread_.join();
  // The dropped tasks and timers are destroyed here, outside mu_.
}

bool ThreadExecutor::InDispatchThread() const { return tlsRunning == this; }

std::uint64_t ThreadExecutor::Add(int fd, std::uint32_t events,
                                  std::shared_ptr<EventHandler> handler) {
  const std::uint64_t id = nextHandlerId_++;
  handlers_[id] = Registration{fd, std::move(handler)};
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = id;
  ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
  return id;
}

void ThreadExecutor::Mod(std::uint64_t id, std::uint32_t events) {
  const auto it = handlers_.find(id);
  if (it == handlers_.end()) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = id;
  ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, it->second.fd, &ev);
}

void ThreadExecutor::Del(std::uint64_t id) {
  const auto it = handlers_.find(id);
  if (it == handlers_.end()) return;
  ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  handlers_.erase(it);
}

void ThreadExecutor::RunDueTimers() {
  const TimePoint now = clock_.Now();
  while (!stop_.load(std::memory_order_relaxed)) {
    Task task;
    {
      std::lock_guard lock(mu_);
      if (timers_.empty() || timers_.begin()->first > now) return;
      auto node = timers_.extract(timers_.begin());
      Timer& timer = node.mapped();
      if (timer.period > Duration::zero()) {
        // Re-armed before it runs, so the task can Cancel its own timer.
        task = timer.task;
        node.key() = now + timer.period;
        timers_.insert(std::move(node));
      } else {
        task = std::move(timer.task);
      }
    }
    task();
  }
}

void ThreadExecutor::Run() {
  tlsRunning = this;
  std::vector<epoll_event> events(kMaxEvents);
  std::vector<Task> batch;
  for (;;) {
    timespec until{};  // zero: poll, because tasks are waiting
    const timespec* timeout = &until;
    {
      std::lock_guard lock(mu_);
      if (stop_.load(std::memory_order_relaxed)) break;
      if (tasks_.empty()) {
        sleeping_ = true;
        timeout = nullptr;
        if (!timers_.empty()) {
          const Duration wait =
              std::clamp(timers_.begin()->first - clock_.Now(), Duration::zero(), kMaxWait);
          until.tv_sec = static_cast<std::time_t>(wait.count() / 1'000'000'000);
          until.tv_nsec = static_cast<long>(wait.count() % 1'000'000'000);
          timeout = &until;
        }
      }
    }
    int n = ::epoll_pwait2(epollFd_, events.data(), kMaxEvents, timeout, nullptr);
    if (n < 0) {
      if (errno != EINTR) {
        std::fprintf(stderr, "ThreadExecutor: epoll_pwait2 failed: %s\n", std::strerror(errno));
        std::abort();
      }
      n = 0;
    }

    std::size_t ready = static_cast<std::size_t>(n);
    for (int i = 0; i < n; ++i) {
      if (events[static_cast<std::size_t>(i)].data.u64 == kWakeId) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r = ::read(wakeFd_, &drain, sizeof(drain));
        --ready;
      }
    }
    {
      std::lock_guard lock(mu_);
      sleeping_ = false;
      if (ready < static_cast<std::size_t>(n)) wakePending_ = false;
      batch.swap(tasks_);
      posted_.store(0, std::memory_order_relaxed);
    }

    // Tasks first: they may add or remove handlers, and a stale dispatch
    // id below then simply misses the map.
    readyLeft_ = ready;
    batchLeft_ = batch.size();
    for (Task& task : batch) {
      --batchLeft_;
      task();
      if (stop_.load(std::memory_order_relaxed)) break;
    }
    batch.clear();
    batchLeft_ = 0;

    for (int i = 0; i < n && !stop_.load(std::memory_order_relaxed); ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kWakeId) continue;
      --readyLeft_;
      const auto it = handlers_.find(ev.data.u64);
      if (it == handlers_.end()) continue;  // removed earlier this round
      // Keep the handler alive across the callback even if it removes
      // itself from the loop.
      const std::shared_ptr<EventHandler> keep = it->second.handler;
      keep->OnEvents(ev.events);
      bufferedInput_ = false;
    }
    readyLeft_ = 0;

    RunDueTimers();
  }
  std::lock_guard lock(mu_);
  exited_ = true;
  syncCv_.notify_all();
}

}  // namespace scalla::sched
