// Tests for the real-time ThreadExecutor event loop: ordering, timers,
// cancellation, wake-ups, fd handlers, RunSync, shutdown safety, and the
// backlog signal CallerHasBacklog() publishes.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <thread>

#include "sched/thread_executor.h"

namespace scalla::sched {
namespace {

TEST(ThreadExecutorTest, PostRunsTasksInOrder) {
  ThreadExecutor exec;
  std::vector<int> order;
  std::atomic<bool> done{false};
  exec.Post([&order] { order.push_back(1); });
  exec.Post([&order] { order.push_back(2); });
  exec.Post([&order, &done] {
    order.push_back(3);
    done = true;
  });
  while (!done) std::this_thread::yield();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadExecutorTest, TasksRunOnDispatchThread) {
  ThreadExecutor exec;
  std::atomic<bool> inDispatch{false};
  std::atomic<bool> done{false};
  exec.Post([&] {
    inDispatch = exec.InDispatchThread();
    done = true;
  });
  while (!done) std::this_thread::yield();
  EXPECT_TRUE(inDispatch);
  EXPECT_FALSE(exec.InDispatchThread());
}

TEST(ThreadExecutorTest, RunAfterFiresOnce) {
  ThreadExecutor exec;
  std::atomic<int> fires{0};
  exec.RunAfter(std::chrono::milliseconds(20), [&fires] { ++fires; });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(fires.load(), 1);
}

TEST(ThreadExecutorTest, RunEveryRepeatsUntilCancelled) {
  ThreadExecutor exec;
  std::atomic<int> fires{0};
  const TimerId id = exec.RunEvery(std::chrono::milliseconds(10), [&fires] { ++fires; });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_GE(fires.load(), 5);
  exec.Cancel(id);
  const int at = fires.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_LE(fires.load(), at + 1);  // at most one in-flight straggler
}

TEST(ThreadExecutorTest, CancelBeforeFire) {
  ThreadExecutor exec;
  std::atomic<bool> fired{false};
  const TimerId id = exec.RunAfter(std::chrono::milliseconds(100), [&fired] { fired = true; });
  EXPECT_TRUE(exec.Cancel(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(fired.load());
}

TEST(ThreadExecutorTest, StopDropsPendingWork) {
  auto exec = std::make_unique<ThreadExecutor>();
  std::atomic<int> ran{0};
  exec->RunAfter(std::chrono::seconds(30), [&ran] { ++ran; });
  exec->Stop();
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadExecutorTest, DestructionWhileTimersPendingIsSafe) {
  std::atomic<int> fires{0};
  {
    ThreadExecutor exec;
    for (int i = 0; i < 10; ++i) {
      exec.RunEvery(std::chrono::milliseconds(5), [&fires] { ++fires; });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  // No crash, no use-after-free (checked by ASAN builds / valgrind runs).
  SUCCEED();
}

TEST(ThreadExecutorTest, ManyProducersOneConsumer) {
  ThreadExecutor exec;
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&exec, &count] {
      for (int i = 0; i < 250; ++i) exec.Post([&count] { ++count; });
    });
  }
  for (auto& t : producers) t.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (count.load() < 1000 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 1000);
}

// Producers post in bursts with gaps long enough for the loop to go back
// to sleep, so many posts race the loop's decision to block: each one must
// either land before it or wake it.
TEST(ThreadExecutorTest, NoWakeupLostAcrossSleeps) {
  ThreadExecutor exec;
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&exec, &count, p] {
      for (int burst = 0; burst < 100; ++burst) {
        for (int i = 0; i < 25; ++i) exec.Post([&count] { ++count; });
        std::this_thread::sleep_for(std::chrono::microseconds(50 + 30 * p));
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (count.load() < 10000 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 10000);
}

TEST(ThreadExecutorTest, RunSyncOnStoppedExecutorRunsInline) {
  ThreadExecutor exec;
  exec.Stop();
  std::thread::id ranOn;
  exec.RunSync([&ranOn] { ranOn = std::this_thread::get_id(); });
  EXPECT_EQ(ranOn, std::this_thread::get_id());
}

TEST(ThreadExecutorTest, RunSyncWaitsForTheDispatchThread) {
  ThreadExecutor exec;
  bool onLoop = false;
  exec.RunSync([&] { onLoop = exec.InDispatchThread(); });
  EXPECT_TRUE(onLoop);
  // On the dispatch thread itself it runs inline instead of deadlocking.
  std::promise<bool> nested;
  exec.Post([&] {
    bool ran = false;
    exec.RunSync([&ran] { ran = true; });
    nested.set_value(ran);
  });
  EXPECT_TRUE(nested.get_future().get());
}

TEST(ThreadExecutorTest, StopFromDispatchThreadThenDestroy) {
  auto exec = std::make_unique<ThreadExecutor>();
  std::promise<void> stopped;
  std::atomic<int> ranAfter{0};
  exec->Post([&] {
    exec->Stop();
    stopped.set_value();
  });
  stopped.get_future().wait();
  exec->Post([&ranAfter] { ++ranAfter; });  // refused: the loop is stopping
  exec.reset();                             // joins the finished loop
  EXPECT_EQ(ranAfter.load(), 0);
}

// A readable eventfd registered on the loop; each dispatch drains it and
// records what CallerHasBacklog() said at that moment.
class EventFdHandler final : public EventHandler {
 public:
  EventFdHandler() : fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~EventFdHandler() override { ::close(fd); }
  void Signal() const {
    const std::uint64_t one = 1;
    ASSERT_EQ(::write(fd, &one, sizeof(one)), static_cast<ssize_t>(sizeof(one)));
  }
  void OnEvents(std::uint32_t) override {
    std::uint64_t drain = 0;
    [[maybe_unused]] const ssize_t n = ::read(fd, &drain, sizeof(drain));
    if (buffered) {
      NoteBufferedInput(true);
      backlogWhileBuffered = CallerHasBacklog();
      NoteBufferedInput(false);
    }
    backlog.push_back(CallerHasBacklog());
    ++dispatches;
  }
  const int fd;
  bool buffered = false;
  bool backlogWhileBuffered = false;
  std::vector<bool> backlog;  // dispatch thread only
  std::atomic<int> dispatches{0};
};

TEST(CallerHasBacklogTest, CountsReadyEventsAndBufferedInput) {
  ThreadExecutor exec;
  auto first = std::make_shared<EventFdHandler>();
  auto second = std::make_shared<EventFdHandler>();
  std::uint64_t ids[2] = {0, 0};
  exec.RunSync([&] {
    ids[0] = exec.Add(first->fd, EPOLLIN, first);
    ids[1] = exec.Add(second->fd, EPOLLIN, second);
  });

  // Both fds become readable while the loop is held in a task, so the
  // next round reports them together: whichever runs first still has the
  // other ready behind it, and the one that runs last has nothing left.
  std::promise<void> started, release;
  std::promise<bool> inTask;
  exec.Post([&] {
    started.set_value();
    release.get_future().wait();
    inTask.set_value(CallerHasBacklog());
  });
  started.get_future().wait();  // this round's epoll_wait is over
  first->Signal();
  second->Signal();
  release.set_value();
  EXPECT_FALSE(inTask.get_future().get());  // events of a later round
  ASSERT_TRUE([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (first->dispatches + second->dispatches < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }());
  std::vector<bool> seen;
  exec.RunSync([&] {
    seen = first->backlog;
    seen.insert(seen.end(), second->backlog.begin(), second->backlog.end());
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_NE(seen[0], seen[1]);  // one saw the other pending, one did not

  // Declared buffered input is a backlog while the handler holds it, and
  // is forgotten once the handler returns.
  exec.RunSync([&] { first->buffered = true; });
  first->Signal();
  ASSERT_TRUE([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (first->dispatches < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }());
  bool after = true;
  exec.RunSync([&] {
    EXPECT_TRUE(first->backlogWhileBuffered);
    EXPECT_FALSE(first->backlog.back());
    after = CallerHasBacklog();
    exec.Del(ids[0]);
    exec.Del(ids[1]);
  });
  EXPECT_FALSE(after);
}

TEST(CallerHasBacklogTest, FalseOffAnyDispatchThread) {
  ThreadExecutor exec;
  std::promise<void> release;
  std::atomic<bool> started{false};
  exec.Post([&] {
    started = true;
    release.get_future().wait();
  });
  exec.Post([] {});  // queued behind the blocked task
  while (!started) std::this_thread::yield();
  // The executor has a backlog, but this thread is not its dispatch thread.
  EXPECT_FALSE(CallerHasBacklog());
  std::thread foreign([] { EXPECT_FALSE(CallerHasBacklog()); });
  foreign.join();
  release.set_value();
}

TEST(CallerHasBacklogTest, TracksTheRunningExecutorsQueue) {
  ThreadExecutor exec;
  std::promise<bool> idle, busy, drained;
  exec.Post([&] { idle.set_value(CallerHasBacklog()); });
  EXPECT_FALSE(idle.get_future().get());  // nothing queued behind it

  std::promise<void> queued;
  exec.Post([&] {
    queued.get_future().wait();
    busy.set_value(CallerHasBacklog());
  });
  exec.Post([&] { drained.set_value(CallerHasBacklog()); });
  queued.set_value();  // the second task is queued before the first reads
  EXPECT_TRUE(busy.get_future().get());
  EXPECT_FALSE(drained.get_future().get());  // the last task has no backlog
}

TEST(CallerHasBacklogTest, StopClearsTheBacklog) {
  ThreadExecutor exec;
  std::promise<std::pair<bool, bool>> seen;
  std::atomic<bool> ranDropped{false};
  std::promise<void> queued;
  exec.Post([&] {
    queued.get_future().wait();
    const bool before = CallerHasBacklog();
    exec.Stop();  // from the dispatch thread: drops the queue, no join
    seen.set_value({before, CallerHasBacklog()});
  });
  exec.Post([&] { ranDropped = true; });
  queued.set_value();
  const auto [before, after] = seen.get_future().get();
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);
  exec.Stop();  // joins
  EXPECT_FALSE(ranDropped.load());
}

}  // namespace
}  // namespace scalla::sched
