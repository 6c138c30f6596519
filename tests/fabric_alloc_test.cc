// Allocation budget of the TCP fabric's frame path. This binary replaces
// global operator new with a version that counts allocations made on the
// two ThreadExecutor loops hosting a client and a server endpoint; a task
// posted to each loop turns its thread's count on, so the test thread and
// the fabric's pool loops are not counted. Between two hosted endpoints, a
// warm XrdClose -> XrdCloseResp round trip allocates nothing on either
// loop: each side encodes into a frame buffer from its own thread's pool
// and writes it through, the receiver parses into its connection's rx
// buffer and decodes a message with no heap fields, and each side counts
// into its own thread's counter shard.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/tcp_fabric.h"
#include "sched/thread_executor.h"
#include "tcp_test_support.h"

namespace {
thread_local bool t_counting = false;
std::atomic<std::size_t> g_loopAllocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) g_loopAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC would otherwise pair the free() with a new-expression
// in gtest's test factory and warn of a mismatch that this pair of
// replacements does not have.
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scalla {
namespace {

using namespace std::chrono_literals;

constexpr net::NodeAddr kClient = 1;
constexpr net::NodeAddr kServer = 2;

// Answers every XrdClose with an XrdCloseResp.
struct CloseServer : net::MessageSink {
  explicit CloseServer(net::Fabric& fabric) : fabric(fabric) {}
  void OnMessage(net::NodeAddr from, proto::Message message) override {
    if (const auto* close = std::get_if<proto::XrdClose>(&message)) {
      fabric.Send(kServer, from, proto::XrdCloseResp{close->reqId, proto::XrdErr::kNone});
    }
  }
  net::Fabric& fabric;
};

// Sends the next XrdClose as each XrdCloseResp arrives, until `target`
// round trips have completed.
struct CloseClient : net::MessageSink {
  explicit CloseClient(net::Fabric& fabric) : fabric(fabric) {}
  void OnMessage(net::NodeAddr, proto::Message message) override {
    if (std::get_if<proto::XrdCloseResp>(&message) == nullptr) return;
    const std::uint64_t done = completed.load(std::memory_order_relaxed) + 1;
    completed.store(done, std::memory_order_release);
    if (done < target.load()) fabric.Send(kClient, kServer, proto::XrdClose{done, 7});
  }
  net::Fabric& fabric;
  std::atomic<std::uint64_t> target{0};  // set before the first request of a run
  std::atomic<std::uint64_t> completed{0};
};

// Runs `trips` round trips, started by a task on the client's loop, and
// returns the allocations both loops made meanwhile.
std::size_t RoundTrips(net::TcpFabric& fabric, sched::ThreadExecutor& clientLoop,
                       CloseClient& client, std::uint64_t trips) {
  const std::uint64_t first = client.completed.load();
  client.target = first + trips;
  const std::size_t before = g_loopAllocations.load();
  clientLoop.RunSync(
      [&fabric, first] { fabric.Send(kClient, kServer, proto::XrdClose{first, 7}); });
  EXPECT_TRUE(WaitFor([&] { return client.completed.load() == first + trips; }, 30s));
  return g_loopAllocations.load() - before;
}

TEST(FabricAllocTest, WarmRoundTripsAllocateNothingOnEitherLoop) {
  sched::ThreadExecutor clientLoop, serverLoop;
  net::TcpFabric fabric(NextBasePort(PortBand::kFabricAlloc));
  CloseClient client(fabric);
  CloseServer server(fabric);
  ASSERT_TRUE(fabric.Register(kClient, &client, &clientLoop));
  ASSERT_TRUE(fabric.Register(kServer, &server, &serverLoop));
  for (sched::ThreadExecutor* loop : {&clientLoop, &serverLoop}) {
    loop->RunSync([] { t_counting = true; });
  }

  // The count is live: the first round trips connect the pair and make
  // its buffers, counter shards and rows.
  EXPECT_GT(RoundTrips(fabric, clientLoop, client, 100), 0u);
  EXPECT_EQ(RoundTrips(fabric, clientLoop, client, 1000), 0u);
  EXPECT_EQ(fabric.PerPeerCounters(kServer).messagesSent, 1100u);
  EXPECT_EQ(fabric.GetCounters().messagesDropped, 0u);
  fabric.Unregister(kClient);
  fabric.Unregister(kServer);
}

}  // namespace
}  // namespace scalla
