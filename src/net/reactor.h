// Epoll reactor: a small fixed pool of event-loop threads, each owning
// many file descriptors through one epoll instance. This is the I/O core
// under net::TcpFabric — listeners, inbound connections and outbound
// connections are all readiness-driven handlers on a loop, so the thread
// count is O(loopThreads), not O(connections).
//
// Ownership and threading rules:
//   - every fd/handler belongs to exactly one Loop. Reads, connect, epoll
//     registration, closing and all other handler state live on that
//     loop's thread;
//   - writes are the one exception: a TcpFabric sender on any thread may
//     write a frame to an outbound connection's socket under that
//     connection's qmu_ while its queue is empty and the loop has marked it
//     writable. The loop clears that mark under qmu_ before it closes or
//     replaces the fd, and it takes every write the sender could not
//     finish (EAGAIN, a partial write, an error);
//   - other threads otherwise talk to a loop only through Post()/RunSync(),
//     which enqueue a task and wake the loop via an eventfd;
//   - handlers are dispatched by a monotonically increasing id (never a
//     raw pointer), so a handler removed mid-batch cannot be reached by a
//     stale event, even if its fd number is immediately reused;
//   - timers (connect/write deadlines, idle reaping, injected delays) are
//     a loop-local multimap drained between epoll_wait rounds;
//   - lock order: a connection's qmu_ before the fabric's perPeerMu_ and
//     the BufferPool lock; no lock is held across a handler callback.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/types.h"

namespace scalla::net {

/// A readiness callback registered on a Loop. `events` is the epoll event
/// mask (EPOLLIN / EPOLLOUT / EPOLLERR / EPOLLHUP bits).
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void OnEvents(std::uint32_t events) = 0;
};

class Reactor {
 public:
  class Loop {
   public:
    Loop();
    ~Loop();
    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;

    /// True when called from this loop's thread.
    bool OnLoopThread() const;

    /// Enqueues `task` to run on the loop thread (any thread; cheap).
    void Post(std::function<void()> task);

    /// Runs `task` on the loop thread and waits for it to finish. Called
    /// from the loop's own thread it runs inline; called after the loop
    /// stopped it also runs inline (teardown path).
    void RunSync(std::function<void()> task);

    // ---- loop-thread-only surface (handlers and timers) ----

    /// Registers `fd` for `events`; returns the dispatch id. The loop
    /// holds a shared_ptr so the handler outlives any in-flight dispatch.
    std::uint64_t Add(int fd, std::uint32_t events,
                      std::shared_ptr<EventHandler> handler);
    /// Changes the interest set of a registered fd.
    void Mod(std::uint64_t id, std::uint32_t events);
    /// Deregisters; the caller still owns (and closes) the fd afterwards.
    void Del(std::uint64_t id);

    /// Runs `fn` on the loop thread at (or just after) `when`.
    void ScheduleAt(TimePoint when, std::function<void()> fn);
    /// Steady-clock now, as a util TimePoint.
    static TimePoint Now();

   private:
    friend class Reactor;
    void Start();
    void Stop();
    void Run();
    void Wake();
    void DrainTasksInline();  // teardown: run leftovers on the caller

    int epollFd_ = -1;
    int wakeFd_ = -1;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> running_{false};

    std::mutex mu_;  // guards tasks_ and wakePending_
    std::vector<std::function<void()>> tasks_;
    bool wakePending_ = false;

    // Loop-thread-only state.
    struct Registration {
      int fd = -1;
      std::shared_ptr<EventHandler> handler;
    };
    std::unordered_map<std::uint64_t, Registration> handlers_;
    std::uint64_t nextId_ = 1;  // 0 is the wake eventfd
    std::multimap<TimePoint, std::function<void()>> timers_;
  };

  explicit Reactor(int loopThreads);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  int size() const { return static_cast<int>(loops_.size()); }
  Loop& At(int i) { return *loops_[static_cast<std::size_t>(i)]; }
  /// Deterministic key -> loop affinity (same key, same loop).
  Loop& LoopFor(std::uint64_t key) {
    return *loops_[static_cast<std::size_t>(key % loops_.size())];
  }

 private:
  std::vector<std::unique_ptr<Loop>> loops_;
};

/// Free list of reusable byte buffers for frame encode/decode: the send
/// path acquires a buffer, encodes into it, and the reactor releases it
/// back once written, so steady-state traffic does not allocate per
/// message. Oversized buffers are dropped rather than hoarded.
class BufferPool {
 public:
  std::string Acquire() {
    std::lock_guard lock(mu_);
    if (free_.empty()) return {};
    std::string out = std::move(free_.back());
    free_.pop_back();
    out.clear();
    return out;
  }

  void Release(std::string&& buffer) {
    constexpr std::size_t kMaxPooled = 64;
    constexpr std::size_t kMaxPooledCapacity = 256 * 1024;
    if (buffer.capacity() > kMaxPooledCapacity) return;
    std::lock_guard lock(mu_);
    if (free_.size() >= kMaxPooled) return;
    free_.push_back(std::move(buffer));
  }

 private:
  std::mutex mu_;
  std::vector<std::string> free_;
};

}  // namespace scalla::net
