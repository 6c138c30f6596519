// Tests for the real-time ThreadExecutor: ordering, timers, cancellation,
// shutdown safety, and the backlog signal CallerHasBacklog() publishes.
#include <gtest/gtest.h>

#include <atomic>
#include <future>

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
