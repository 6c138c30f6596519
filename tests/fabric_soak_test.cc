// Tier-2 soak: the reactor's reason to exist is serving far more sockets
// than threads. 100 sender addresses each talk to 50 receiver endpoints —
// 5000 live (from,to) connections, i.e. 10,000 sockets in-process on both
// ends of the loopback — over the fabric's two pool event loops.
// Every pair delivers two waves of messages (the second after the whole
// mesh is established, exercising connection reuse at scale) and the
// per-peer counters must still add up.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "net/tcp_fabric.h"

namespace scalla {
namespace {

using namespace std::chrono_literals;

// Below the ephemeral port range (32768+) like every other test band.
constexpr std::uint16_t kBasePort = 18000;
constexpr int kSenders = 100;    // addresses 1..100, never registered
constexpr int kReceivers = 50;   // addresses 201..250, registered endpoints
constexpr int kPairs = kSenders * kReceivers;

struct CountingSink : net::MessageSink {
  std::mutex mu;
  std::condition_variable cv;
  int messages = 0;
  int peerDowns = 0;

  void OnMessage(net::NodeAddr, proto::Message) override {
    std::lock_guard lock(mu);
    ++messages;
    cv.notify_all();
  }
  void OnPeerDown(net::NodeAddr) override {
    std::lock_guard lock(mu);
    ++peerDowns;
  }
  bool WaitMessages(int n, Duration timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return messages >= n; });
  }
};

TEST(FabricSoakTest, TenThousandSocketMesh) {
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  // 5000 connections cost ~10k fds plus listeners and reactor plumbing.
  if (limit.rlim_cur < 11000) {
    GTEST_SKIP() << "RLIMIT_NOFILE soft limit " << limit.rlim_cur
                 << " too small for a 10k-socket mesh";
  }

  net::FabricOptions cfg;
  cfg.connectTimeout = 10s;  // 5000 concurrent handshakes share the loops
  cfg.writeTimeout = 30s;
  std::vector<std::unique_ptr<CountingSink>> sinks;  // outlive the fabric
  net::TcpFabric fabric(kBasePort, cfg);
  for (int r = 0; r < kReceivers; ++r) {
    sinks.push_back(std::make_unique<CountingSink>());
    ASSERT_TRUE(fabric.Register(static_cast<net::NodeAddr>(201 + r),
                                sinks.back().get(), nullptr));
  }

  // Wave 1 establishes every connection in the mesh.
  for (int s = 0; s < kSenders; ++s) {
    for (int r = 0; r < kReceivers; ++r) {
      fabric.Send(static_cast<net::NodeAddr>(1 + s),
                  static_cast<net::NodeAddr>(201 + r), proto::XrdClose{1, 2});
    }
  }
  for (auto& sink : sinks) ASSERT_TRUE(sink->WaitMessages(kSenders, 120s));
  EXPECT_EQ(fabric.ActiveOutboundConnections(), static_cast<std::size_t>(kPairs));

  // Wave 2 rides the established connections — no reconnects, no failures.
  for (int s = 0; s < kSenders; ++s) {
    for (int r = 0; r < kReceivers; ++r) {
      fabric.Send(static_cast<net::NodeAddr>(1 + s),
                  static_cast<net::NodeAddr>(201 + r), proto::XrdClose{3, 4});
    }
  }
  for (auto& sink : sinks) ASSERT_TRUE(sink->WaitMessages(2 * kSenders, 120s));

  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.messagesSent, static_cast<std::uint64_t>(2 * kPairs));
  EXPECT_EQ(c.messagesDelivered, static_cast<std::uint64_t>(2 * kPairs));
  EXPECT_EQ(c.framesSent, static_cast<std::uint64_t>(2 * kPairs));
  EXPECT_EQ(c.framesReceived, static_cast<std::uint64_t>(2 * kPairs));
  EXPECT_EQ(c.messagesDropped, 0u);
  EXPECT_EQ(c.reconnects, 0u);
  EXPECT_EQ(c.queueOverflows, 0u);
  for (auto& sink : sinks) EXPECT_EQ(sink->peerDowns, 0);

  // Per-peer attribution still adds up at scale: each receiver address got
  // 2 frames from each of the 100 senders.
  for (int r = 0; r < kReceivers; ++r) {
    const auto per = fabric.PerPeerCounters(static_cast<net::NodeAddr>(201 + r));
    EXPECT_EQ(per.framesSent, static_cast<std::uint64_t>(2 * kSenders)) << r;
  }
}

}  // namespace
}  // namespace scalla
