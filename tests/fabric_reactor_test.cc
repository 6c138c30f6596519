// Reactor-core tests for the redesigned transport surface: framing across
// partial writes (tiny SO_SNDBUF) and coalesced reads, the write-through
// send path (partial writes handed to the loop, per-pair order, the write
// deadline), inbound frames split to single bytes or larger than 1 MiB,
// idle-connection reaping with transparent reconnect, per-peer counter
// attribution, FabricOptions validation, the uniform FaultInjector
// contract — the same chaos scenario driven through net::Fabric* against
// SimFabric, pooled TcpFabric endpoints and ThreadExecutor-hosted ones
// without downcasting — and the hosted path itself: inline delivery on the
// endpoint's own loop, per-pair order under foreign and backlogged
// senders, a blocking handler, the posted path through a forwarding
// executor, and teardown from the dispatch thread or after Stop.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "net/tcp_fabric.h"
#include "proto/wire.h"
#include "sched/thread_executor.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"

namespace scalla {
namespace {

using namespace std::chrono_literals;

// Own band: above bench_fabric (14000–15536) and below the fabric soak
// (18000). Every band stays below the ephemeral port range (32768+) so a
// leftover outbound socket can never squat on a listener port.
std::uint16_t NextBasePort() {
  static std::atomic<std::uint16_t> next{16500};
  return next.fetch_add(100);
}

struct CountingSink : net::MessageSink {
  std::mutex mu;
  std::condition_variable cv;
  int messages = 0;
  int peerDowns = 0;
  std::uint64_t payloadBytes = 0;  // total XrdWrite data received
  bool payloadIntact = true;       // every XrdWrite data byte was 'w'

  void OnMessage(net::NodeAddr, proto::Message message) override {
    std::lock_guard lock(mu);
    ++messages;
    if (const auto* write = std::get_if<proto::XrdWrite>(&message)) {
      payloadBytes += write->data.size();
      for (const char c : write->data) {
        if (c != 'w') payloadIntact = false;
      }
    }
    cv.notify_all();
  }
  void OnPeerDown(net::NodeAddr) override {
    std::lock_guard lock(mu);
    ++peerDowns;
    cv.notify_all();
  }
  int Messages() {
    std::lock_guard lock(mu);
    return messages;
  }
  int PeerDowns() {
    std::lock_guard lock(mu);
    return peerDowns;
  }
  bool WaitMessages(int n, Duration timeout = 10s) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return messages >= n; });
  }
  bool WaitPeerDowns(int n, Duration timeout = 10s) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return peerDowns >= n; });
  }
};

proto::Message SmallMessage() { return proto::XrdClose{1, 2}; }

// Checks per-pair order: every XrdClose and XrdWrite carries the next
// sequence number in its reqId, starting from 0.
struct SequenceSink : CountingSink {
  std::uint64_t nextSeq = 0;
  bool inOrder = true;

  void OnMessage(net::NodeAddr from, proto::Message message) override {
    std::uint64_t seq = 0;
    if (const auto* close = std::get_if<proto::XrdClose>(&message)) seq = close->reqId;
    if (const auto* write = std::get_if<proto::XrdWrite>(&message)) seq = write->reqId;
    {
      std::lock_guard lock(mu);
      if (seq != nextSeq) inOrder = false;
      nextSeq = seq + 1;
    }
    CountingSink::OnMessage(from, std::move(message));
  }
  bool InOrder() {
    std::lock_guard lock(mu);
    return inOrder;
  }
};

proto::Message Sequenced(std::uint64_t seq) { return proto::XrdClose{seq, 0}; }

proto::XrdWrite BigWrite(std::uint64_t seq, std::size_t bytes) {
  proto::XrdWrite big;
  big.reqId = seq;
  big.data.assign(bytes, 'w');
  return big;
}

// [u32 length][u32 sender][body], as TcpFabric frames it.
std::string Frame(const proto::Message& message, net::NodeAddr sender) {
  const std::string body = proto::Encode(message);
  const auto length = static_cast<std::uint32_t>(body.size());
  std::string frame(8, '\0');
  std::memcpy(frame.data(), &length, 4);
  std::memcpy(frame.data() + 4, &sender, 4);
  return frame + body;
}

bool WaitFor(const std::function<bool()>& done, Duration timeout = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// Sends `message` and waits until the frame has left the pair's queue, so
// the pair is connected and idle: the next Send from a thread that is not
// an executor with a backlog writes through.
void PrimeIdlePair(net::TcpFabric& fabric, net::NodeAddr from, net::NodeAddr to,
                   proto::Message message) {
  const std::uint64_t sent = fabric.PerPeerCounters(to).framesSent;
  fabric.Send(from, to, std::move(message));
  ASSERT_TRUE(WaitFor([&] { return fabric.PerPeerCounters(to).framesSent > sent; }));
}

// A raw loopback listener on basePort+addr with a tiny receive buffer.
int RawListen(std::uint16_t basePort, net::NodeAddr addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(static_cast<std::uint16_t>(basePort + addr));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, 8) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// A raw loopback client socket connected to basePort+addr, or -1.
int RawConnect(std::uint16_t basePort, net::NodeAddr addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(static_cast<std::uint16_t>(basePort + addr));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

TEST(FabricOptionsTest, ValidatesRanges) {
  net::FabricOptions ok;
  EXPECT_TRUE(net::ValidateFabricOptions(ok).ok());

  net::FabricOptions bad = ok;
  bad.maxQueuedMessages = 0;
  auto r = net::ValidateFabricOptions(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("fabric.queuedepth"), std::string::npos);

  bad = ok;
  bad.connectTimeout = std::chrono::milliseconds(0);
  EXPECT_FALSE(net::ValidateFabricOptions(bad).ok());

  bad = ok;
  bad.writeTimeout = std::chrono::milliseconds(-1);
  EXPECT_FALSE(net::ValidateFabricOptions(bad).ok());

  bad = ok;
  bad.idleTimeout = std::chrono::milliseconds(-1);
  EXPECT_FALSE(net::ValidateFabricOptions(bad).ok());
  bad.idleTimeout = std::chrono::milliseconds(0);  // zero disables: legal
  EXPECT_TRUE(net::ValidateFabricOptions(bad).ok());
}

// A 1 MB frame through a 4 KB socket buffer cannot leave in one write:
// the connection takes EAGAIN mid-frame and must resume from its partial
// offset without corrupting the stream.
TEST(FabricReactorTest, PartialWritesPreserveFraming) {
  const auto base = NextBasePort();
  net::FabricOptions cfg;
  cfg.sendBufferBytes = 4096;
  CountingSink a, b;  // sinks must outlive the fabric
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  constexpr int kFrames = 8;
  constexpr std::size_t kPayload = 1 << 20;
  proto::XrdWrite big;
  big.data.assign(kPayload, 'w');
  for (int i = 0; i < kFrames; ++i) fabric.Send(1, 2, big);

  ASSERT_TRUE(b.WaitMessages(kFrames, 30s));
  EXPECT_EQ(b.payloadBytes, static_cast<std::uint64_t>(kFrames) * kPayload);
  EXPECT_TRUE(b.payloadIntact);
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.framesSent, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(c.framesReceived, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(c.messagesDropped, 0u);
}

// Many small frames sent back-to-back coalesce into fewer TCP segments;
// the receive path must slice frames back out of arbitrary read-chunk
// boundaries.
TEST(FabricReactorTest, CoalescedSmallFramesAllParsed) {
  const auto base = NextBasePort();
  CountingSink a, b;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) fabric.Send(1, 2, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(kFrames));
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.framesReceived, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(c.messagesDelivered, static_cast<std::uint64_t>(kFrames));
}

// A frame sent to an idle, connected pair is written by the calling
// thread. When the socket takes only part of it, the loop finishes it from
// the recorded offset, and frames sent meanwhile queue behind it in order.
TEST(FabricReactorTest, WriteThroughPartialWriteKeepsPairOrder) {
  const auto base = NextBasePort();
  net::FabricOptions cfg;
  cfg.sendBufferBytes = 4096;
  CountingSink a;
  SequenceSink b;
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  std::uint64_t seq = 0;
  PrimeIdlePair(fabric, 1, 2, Sequenced(seq++));
  // Written through: the frame is counted before Send returns.
  fabric.Send(1, 2, Sequenced(seq++));
  EXPECT_EQ(fabric.PerPeerCounters(2).framesSent, 2u);

  // 1 MiB does not fit a 4 KiB send buffer.
  constexpr std::size_t kPayload = 1 << 20;
  fabric.Send(1, 2, BigWrite(seq++, kPayload));
  for (int i = 0; i < 1000; ++i) fabric.Send(1, 2, Sequenced(seq++));

  ASSERT_TRUE(b.WaitMessages(static_cast<int>(seq), 30s));
  EXPECT_TRUE(b.InOrder());
  EXPECT_TRUE(b.payloadIntact);
  EXPECT_EQ(b.payloadBytes, kPayload);
  ASSERT_TRUE(WaitFor([&] { return fabric.GetCounters().framesSent == seq; }));
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.framesReceived, seq);
  EXPECT_EQ(c.messagesDropped, 0u);
  EXPECT_EQ(c.reconnects, 0u);
  EXPECT_EQ(a.PeerDowns(), 0);
}

// An injected delay shorter than one send paces every frame, so after
// each frame the next drain pass is already eligible and finds the queue
// empty. Clearing the delay lets the next frame write through again.
TEST(FabricReactorTest, PacedPairDrainsInOrderAndGoesIdle) {
  const auto base = NextBasePort();
  CountingSink a;
  SequenceSink b;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  std::uint64_t seq = 0;
  PrimeIdlePair(fabric, 1, 2, Sequenced(seq++));
  fabric.SetDelay(1, 2, 1us);
  for (int i = 0; i < 50; ++i) {
    fabric.Send(1, 2, Sequenced(seq++));
    if (i % 10 == 0) std::this_thread::sleep_for(2ms);  // let the queue drain
  }
  ASSERT_TRUE(b.WaitMessages(static_cast<int>(seq)));
  ASSERT_TRUE(WaitFor([&] { return fabric.GetCounters().framesSent == seq; }));

  fabric.SetDelay(1, 2, Duration::zero());
  fabric.Send(1, 2, Sequenced(seq++));
  EXPECT_EQ(fabric.GetCounters().framesSent, seq);  // written through
  ASSERT_TRUE(b.WaitMessages(static_cast<int>(seq)));
  EXPECT_TRUE(b.InOrder());
  EXPECT_EQ(fabric.GetCounters().messagesDropped, 0u);
}

// A peer that takes one frame and then stops reading: a large frame
// written through stalls part-way, the loop takes over, and its write
// deadline tears the connection down. The stale-connection retry stalls
// the same way, so the sender hears OnPeerDown.
TEST(FabricReactorTest, WriteThroughToStalledPeerEndsInPeerDown) {
  const auto base = NextBasePort();
  net::FabricOptions cfg;
  cfg.sendBufferBytes = 4096;
  cfg.writeTimeout = 300ms;
  CountingSink a;
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  const int listenFd = RawListen(base, 7);
  ASSERT_GE(listenFd, 0);

  const std::string first = Frame(Sequenced(0), 1);
  fabric.Send(1, 7, Sequenced(0));
  const int peer = ::accept(listenFd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  std::string got(first.size(), '\0');
  ASSERT_EQ(::recv(peer, got.data(), got.size(), MSG_WAITALL),
            static_cast<ssize_t>(got.size()));
  EXPECT_EQ(got, first);
  ASSERT_TRUE(WaitFor([&] { return fabric.PerPeerCounters(7).framesSent == 1; }));

  fabric.Send(1, 7, Sequenced(1));  // still fits the socket buffers
  EXPECT_EQ(fabric.PerPeerCounters(7).framesSent, 2u);
  fabric.Send(1, 7, BigWrite(2, 4 << 20));

  ASSERT_TRUE(a.WaitPeerDowns(1, 10s));
  const auto c = fabric.PerPeerCounters(7);
  EXPECT_EQ(c.framesSent, 2u);
  EXPECT_EQ(c.messagesDropped, 1u);
  EXPECT_EQ(c.reconnects, 1u);
  ::close(peer);
  ::close(listenFd);
}

// Inbound framing against a raw client: frames dribbled one byte per
// segment, then a frame larger than 1 MiB (the rx buffer grows past its
// shrink threshold), then small frames in one burst (parsed after the big
// buffer is given back).
TEST(FabricReactorTest, DribbledAndOversizedInboundFramesParse) {
  const auto base = NextBasePort();
  SequenceSink b;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));
  const int fd = RawConnect(base, 2);
  ASSERT_GE(fd, 0);

  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) {
    const std::string frame = Frame(Sequenced(seq++), 9);
    for (const char byte : frame) {
      ASSERT_TRUE(SendAll(fd, &byte, 1));
      std::this_thread::sleep_for(50us);
    }
  }
  ASSERT_TRUE(b.WaitMessages(static_cast<int>(seq)));

  constexpr std::size_t kPayload = 3 * 512 * 1024;  // 1.5 MiB
  const std::string big = Frame(BigWrite(seq++, kPayload), 9);
  ASSERT_TRUE(SendAll(fd, big.data(), big.size()));
  ASSERT_TRUE(b.WaitMessages(static_cast<int>(seq)));

  std::string burst;
  for (int i = 0; i < 50; ++i) burst += Frame(Sequenced(seq++), 9);
  ASSERT_TRUE(SendAll(fd, burst.data(), burst.size()));
  ASSERT_TRUE(b.WaitMessages(static_cast<int>(seq)));

  EXPECT_TRUE(b.InOrder());
  EXPECT_TRUE(b.payloadIntact);
  EXPECT_EQ(b.payloadBytes, kPayload);
  const auto from9 = fabric.PerPeerCounters(9);
  EXPECT_EQ(from9.framesReceived, seq);
  EXPECT_EQ(from9.messagesDelivered, seq);
  EXPECT_EQ(fabric.ReaderCount(2), 1u);  // the connection stayed up
  ::close(fd);
}

TEST(FabricReactorTest, IdleConnectionReapedAndReconnectsTransparently) {
  const auto base = NextBasePort();
  net::FabricOptions cfg;
  cfg.idleTimeout = 200ms;
  CountingSink a, b;
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  fabric.Send(1, 2, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(1));
  // The connection established for that send goes quiet and is reaped.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fabric.ActiveOutboundConnections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(fabric.ActiveOutboundConnections(), 0u);
  EXPECT_GE(fabric.GetCounters().idleReaps, 1u);

  // The next send re-establishes silently: delivered, with no reconnect
  // counted (the reap was planned, not a stale-connection failure) and no
  // OnPeerDown on either endpoint.
  fabric.Send(1, 2, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(2));
  EXPECT_EQ(fabric.GetCounters().reconnects, 0u);
  EXPECT_EQ(a.PeerDowns(), 0);
  EXPECT_EQ(b.PeerDowns(), 0);
}

TEST(FabricReactorTest, PerPeerCountersAttributeTraffic) {
  const auto base = NextBasePort();
  CountingSink a, b, c;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));
  ASSERT_TRUE(fabric.Register(3, &c, nullptr));

  for (int i = 0; i < 3; ++i) fabric.Send(1, 2, SmallMessage());
  for (int i = 0; i < 5; ++i) fabric.Send(1, 3, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(3));
  ASSERT_TRUE(c.WaitMessages(5));

  // Send-side attribution keys on the destination peer...
  const auto toB = fabric.PerPeerCounters(2);
  EXPECT_EQ(toB.messagesSent, 3u);
  EXPECT_EQ(toB.framesSent, 3u);
  EXPECT_GT(toB.bytesSent, 0u);
  const auto toC = fabric.PerPeerCounters(3);
  EXPECT_EQ(toC.messagesSent, 5u);
  EXPECT_EQ(toC.framesSent, 5u);
  // ...receive-side attribution keys on the sender: all 8 frames arrived
  // from peer 1, regardless of which endpoint they landed on.
  const auto from1 = fabric.PerPeerCounters(1);
  EXPECT_EQ(from1.framesReceived, 8u);
  EXPECT_EQ(from1.messagesDelivered, 8u);
  EXPECT_GT(from1.bytesReceived, 0u);
  // An address nobody talked to reads all-zero.
  EXPECT_EQ(fabric.PerPeerCounters(77).framesSent, 0u);
}

// ---- the uniform FaultInjector contract ----
// One scenario, written purely against net::Fabric*, runs over both
// transports. `wait` blocks until a sink saw n messages (virtual time for
// the sim, wall clock for TCP); `settle` gives silently-lost traffic a
// chance to (not) arrive before asserting absence.

struct TransportHooks {
  std::function<bool(CountingSink&, int)> wait;       // >= n messages
  std::function<bool(CountingSink&, int)> waitDowns;  // >= n peer-downs
  std::function<void()> settle;
};

void RunFaultScenario(net::Fabric& fabric, net::NodeAddr a, net::NodeAddr b,
                      CountingSink& sinkA, CountingSink& sinkB,
                      const TransportHooks& hooks) {
  // Baseline: the link works.
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 1));

  // Wedged receiver: frames vanish silently in BOTH directions and no
  // OnPeerDown fires anywhere — only a heartbeat can see this failure.
  fabric.SetWedged(b, true);
  for (int i = 0; i < 3; ++i) fabric.Send(a, b, SmallMessage());
  fabric.Send(b, a, SmallMessage());
  hooks.settle();
  EXPECT_EQ(sinkB.Messages(), 1);
  EXPECT_EQ(sinkA.Messages(), 0);
  EXPECT_EQ(sinkA.PeerDowns(), 0);
  EXPECT_EQ(sinkB.PeerDowns(), 0);
  fabric.SetWedged(b, false);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 2));

  // One-way silent drop: a->b loses, b->a still works, nobody is told.
  fabric.SetDrop(a, b, true);
  fabric.Send(a, b, SmallMessage());
  fabric.Send(b, a, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkA, 1));
  hooks.settle();
  EXPECT_EQ(sinkB.Messages(), 2);
  EXPECT_EQ(sinkA.PeerDowns(), 0);
  fabric.SetDrop(a, b, false);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 3));

  // Downed endpoint: the sender is told its peer is gone (asynchronously
  // on both transports), the message is not delivered.
  fabric.SetDown(b, true);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.waitDowns(sinkA, 1));
  EXPECT_EQ(sinkB.Messages(), 3);
  fabric.SetDown(b, false);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 4));

  // Cut link: visible break, sender told; heal restores delivery.
  fabric.SetLinkCut(a, b, true);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.waitDowns(sinkA, 2));
  fabric.SetLinkCut(a, b, false);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 5));
}

TEST(FaultInjectorContractTest, SimFabric) {
  sim::EventEngine engine;
  sim::SimFabric fabric(engine);
  CountingSink sinkA, sinkB;
  fabric.Register(1, &sinkA);
  fabric.Register(2, &sinkB);

  TransportHooks hooks;
  hooks.wait = [&](CountingSink& s, int n) {
    return engine.RunUntilPredicate([&] { return s.Messages() >= n; },
                                    engine.Now() + 1s);
  };
  hooks.waitDowns = [&](CountingSink& s, int n) {
    return engine.RunUntilPredicate([&] { return s.PeerDowns() >= n; },
                                    engine.Now() + 1s);
  };
  hooks.settle = [&] { engine.RunFor(50ms); };
  RunFaultScenario(fabric, 1, 2, sinkA, sinkB, hooks);
}

TransportHooks TcpHooks() {
  TransportHooks hooks;
  hooks.wait = [](CountingSink& s, int n) { return s.WaitMessages(n); };
  hooks.waitDowns = [](CountingSink& s, int n) { return s.WaitPeerDowns(n); };
  hooks.settle = [] { std::this_thread::sleep_for(250ms); };
  return hooks;
}

TEST(FaultInjectorContractTest, TcpFabric) {
  const auto base = NextBasePort();
  CountingSink sinkA, sinkB;  // sinks must outlive the fabric
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &sinkA, nullptr));
  ASSERT_TRUE(fabric.Register(2, &sinkB, nullptr));
  RunFaultScenario(fabric, 1, 2, sinkA, sinkB, TcpHooks());
}

// The same contract with both endpoints hosted on their own loops: every
// socket of each lives on its ThreadExecutor and frames arrive inline.
TEST(FaultInjectorContractTest, TcpFabricHostedEndpoints) {
  const auto base = NextBasePort();
  CountingSink sinkA, sinkB;
  sched::ThreadExecutor execA, execB;  // declared before the fabric: outlive it
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &sinkA, &execA));
  ASSERT_TRUE(fabric.Register(2, &sinkB, &execB));
  RunFaultScenario(fabric, 1, 2, sinkA, sinkB, TcpHooks());
}

// ---- endpoints hosted on their own ThreadExecutor ----

// Per-sender order, and whether every message ran on `home`'s thread.
struct PerPairSink : CountingSink {
  explicit PerPairSink(sched::ThreadExecutor& home) : home(home) {}

  void OnMessage(net::NodeAddr from, proto::Message message) override {
    const auto* close = std::get_if<proto::XrdClose>(&message);
    {
      std::lock_guard lock(mu);
      if (close == nullptr || close->reqId != nextSeq[from]) inOrder = false;
      if (close != nullptr) nextSeq[from] = close->reqId + 1;
      if (!home.InDispatchThread()) offHome = true;
    }
    CountingSink::OnMessage(from, std::move(message));
  }

  bool InOrder() {
    std::lock_guard lock(mu);
    return inOrder;
  }
  bool OffHome() {
    std::lock_guard lock(mu);
    return offHome;
  }

  sched::ThreadExecutor& home;
  std::map<net::NodeAddr, std::uint64_t> nextSeq;
  bool inOrder = true;
  bool offHome = false;
};

// Four foreign threads (pooled senders) and one hosted sender that always
// has tasks queued behind the one sending — so its frames queue and its
// own loop drains them — all send to one hosted receiver. Every message
// is handled on the receiver's dispatch thread, in order per sender.
TEST(HostedEndpointTest, InlineDeliveryKeepsPerPairOrder) {
  const auto base = NextBasePort();
  constexpr int kForeign = 4;
  constexpr int kPerSender = 2000;
  sched::ThreadExecutor rxExec, txExec;
  PerPairSink rx(rxExec);
  CountingSink tx, foreign[kForeign];
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &rx, &rxExec));
  ASSERT_TRUE(fabric.Register(2, &tx, &txExec));
  for (int i = 0; i < kForeign; ++i) {
    ASSERT_TRUE(fabric.Register(static_cast<net::NodeAddr>(10 + i), &foreign[i], nullptr));
  }

  std::atomic<int> backlogged{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kForeign; ++i) {
    threads.emplace_back([&fabric, i] {
      for (int seq = 0; seq < kPerSender; ++seq) {
        fabric.Send(static_cast<net::NodeAddr>(10 + i), 1, Sequenced(seq));
      }
    });
  }
  // 100 tasks of 20 frames, queued behind a held task so that each runs
  // with the rest still queued.
  constexpr int kPerTask = 20;
  std::promise<void> release;
  txExec.Post([&release] { release.get_future().wait(); });
  for (int t = 0; t < kPerSender / kPerTask; ++t) {
    txExec.Post([&fabric, &backlogged, t] {
      backlogged += sched::CallerHasBacklog();
      for (int i = 0; i < kPerTask; ++i) fabric.Send(2, 1, Sequenced(t * kPerTask + i));
    });
  }
  release.set_value();
  for (auto& t : threads) t.join();

  ASSERT_TRUE(rx.WaitMessages((kForeign + 1) * kPerSender, 30s));
  EXPECT_TRUE(rx.InOrder());
  EXPECT_FALSE(rx.OffHome());
  EXPECT_GT(backlogged.load(), 0);
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.messagesDropped, 0u);
  EXPECT_EQ(c.reconnects, 0u);
  EXPECT_EQ(tx.PeerDowns(), 0);
}

// A hosted handler that blocks stops its endpoint's reads; the peer's
// frames wait in kernel buffers and the sender's queue, inside the write
// deadline, and all arrive in order once the handler returns.
TEST(HostedEndpointTest, BlockingHandlerStallsOnlyItsReads) {
  const auto base = NextBasePort();
  struct BlockingSink : SequenceSink {
    void OnMessage(net::NodeAddr from, proto::Message message) override {
      const auto* close = std::get_if<proto::XrdClose>(&message);
      if (close != nullptr && close->reqId == 0) std::this_thread::sleep_for(300ms);
      SequenceSink::OnMessage(from, std::move(message));
    }
  };
  sched::ThreadExecutor rxExec, txExec;
  BlockingSink rx;
  CountingSink tx;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &rx, &rxExec));
  ASSERT_TRUE(fabric.Register(2, &tx, &txExec));

  constexpr int kSmall = 2000;
  constexpr int kBig = 16;
  constexpr std::size_t kBigBytes = 64 * 1024;
  txExec.Post([&fabric] {
    std::uint64_t seq = 0;
    fabric.Send(2, 1, Sequenced(seq++));  // the receiver blocks on this one
    for (int i = 0; i < kSmall; ++i) fabric.Send(2, 1, Sequenced(seq++));
    for (int i = 0; i < kBig; ++i) fabric.Send(2, 1, BigWrite(seq++, kBigBytes));
  });

  ASSERT_TRUE(rx.WaitMessages(1 + kSmall + kBig, 20s));
  EXPECT_TRUE(rx.InOrder());
  EXPECT_TRUE(rx.payloadIntact);
  EXPECT_EQ(rx.payloadBytes, kBig * kBigBytes);
  EXPECT_EQ(tx.PeerDowns(), 0);
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.reconnects, 0u);
  EXPECT_EQ(c.messagesDropped, 0u);
}

// Forwards to a ThreadExecutor, shaped like a tracing wrapper: the fabric
// sees an Executor that is not a ThreadExecutor, so the endpoint's
// sockets stay on the pool and each message is posted.
class ForwardingExecutor final : public sched::Executor {
 public:
  explicit ForwardingExecutor(sched::Executor& inner) : inner_(inner) {}
  void Post(sched::Task task) override {
    ++posts;
    inner_.Post(std::move(task));
  }
  sched::TimerId RunAfter(Duration delay, sched::Task task) override {
    return inner_.RunAfter(delay, std::move(task));
  }
  sched::TimerId RunEvery(Duration period, sched::Task task) override {
    return inner_.RunEvery(period, std::move(task));
  }
  bool Cancel(sched::TimerId id) override { return inner_.Cancel(id); }
  util::Clock& clock() override { return inner_.clock(); }

  std::atomic<int> posts{0};

 private:
  sched::Executor& inner_;
};

TEST(HostedEndpointTest, ForwardingExecutorKeepsThePostedPath) {
  const auto base = NextBasePort();
  sched::ThreadExecutor rxExec;
  ForwardingExecutor forwarding(rxExec);
  PerPairSink rx(rxExec);
  CountingSink tx;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &rx, &forwarding));
  ASSERT_TRUE(fabric.Register(2, &tx, nullptr));

  constexpr int kFrames = 500;
  for (int seq = 0; seq < kFrames; ++seq) fabric.Send(2, 1, Sequenced(seq));
  ASSERT_TRUE(rx.WaitMessages(kFrames));
  EXPECT_TRUE(rx.InOrder());
  EXPECT_FALSE(rx.OffHome());  // posted onto the wrapped thread
  EXPECT_GE(forwarding.posts.load(), kFrames);
}

// A handler that unregisters its own endpoint: Unregister runs inline on
// the dispatch thread and returns, and the frames still buffered behind
// the one being handled are never delivered to the departed endpoint.
TEST(HostedEndpointTest, UnregisterFromOwnDispatchThread) {
  const auto base = NextBasePort();
  sched::ThreadExecutor rxExec;
  net::TcpFabric fabric(base);
  struct LeavingSink : CountingSink {
    net::TcpFabric* fabric = nullptr;
    std::atomic<bool> unregistered{false};
    void OnMessage(net::NodeAddr from, proto::Message message) override {
      if (!unregistered) {
        fabric->Unregister(1);
        unregistered = true;
      }
      CountingSink::OnMessage(from, std::move(message));
    }
  } rx;
  rx.fabric = &fabric;
  CountingSink tx;
  ASSERT_TRUE(fabric.Register(1, &rx, &rxExec));
  ASSERT_TRUE(fabric.Register(2, &tx, nullptr));

  const int fd = RawConnect(base, 1);
  ASSERT_GE(fd, 0);
  std::string burst;
  for (int i = 0; i < 20; ++i) burst += Frame(Sequenced(i), 9);
  ASSERT_TRUE(SendAll(fd, burst.data(), burst.size()));
  ASSERT_TRUE(WaitFor([&] { return rx.unregistered.load(); }));
  ::close(fd);
  EXPECT_EQ(fabric.ReaderCount(1), 0u);

  // A task on the dispatch thread may unregister an endpoint too.
  ASSERT_TRUE(fabric.Register(3, &tx, &rxExec));
  std::promise<void> done;
  rxExec.Post([&] {
    fabric.Unregister(3);
    done.set_value();
  });
  EXPECT_EQ(done.get_future().wait_for(5s), std::future_status::ready);
  std::this_thread::sleep_for(50ms);  // any frame still buffered would land now
  EXPECT_EQ(rx.Messages(), 1);
}

// Stopping every executor and then destroying the fabric — the order a
// benchmark harness uses — tears the hosted sockets down on the caller.
TEST(HostedEndpointTest, FabricDestroyedAfterExecutorsStopped) {
  const auto base = NextBasePort();
  CountingSink a, b, c;
  auto execA = std::make_unique<sched::ThreadExecutor>();
  auto execB = std::make_unique<sched::ThreadExecutor>();
  auto fabric = std::make_unique<net::TcpFabric>(base);
  ASSERT_TRUE(fabric->Register(1, &a, execA.get()));
  ASSERT_TRUE(fabric->Register(2, &b, execB.get()));
  ASSERT_TRUE(fabric->Register(3, &c, nullptr));
  for (int i = 0; i < 10; ++i) {
    fabric->Send(1, 2, SmallMessage());
    fabric->Send(2, 1, SmallMessage());
    fabric->Send(3, 1, SmallMessage());
    fabric->Send(1, 3, SmallMessage());
  }
  ASSERT_TRUE(a.WaitMessages(20));
  ASSERT_TRUE(b.WaitMessages(10));
  ASSERT_TRUE(c.WaitMessages(10));
  execA->Stop();
  execB->Stop();
  fabric.reset();
  execA.reset();  // aborts if the fabric left a socket registered on it
  execB.reset();
}

// Destroying a ThreadExecutor that still hosts a registered endpoint
// aborts with a message, rather than leaving the fabric a dangling loop.
TEST(HostedEndpointDeathTest, ExecutorDestroyedWhileHostingAborts) {
  const auto base = NextBasePort();
  EXPECT_DEATH(
      {
        CountingSink sink;
        net::TcpFabric fabric(base);
        auto exec = std::make_unique<sched::ThreadExecutor>();
        if (fabric.Register(1, &sink, exec.get())) exec.reset();
      },
      "still hosts");
}

}  // namespace
}  // namespace scalla
