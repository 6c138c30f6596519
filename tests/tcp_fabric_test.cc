// Failure-path tests for the per-peer TCP transport: peer-down delivery on
// connect refusal, on a peer address past the last port and on an expired
// write deadline, reconnect accounting across a peer restart, bounded-queue
// overflow, malformed-frame and spoofed-sender disconnects, fault injection
// (down / cut / drop / delay), inbound connection reaping, and the
// head-of-line isolation guarantee — a stalled destination delays only its
// own queue.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "net/tcp_fabric.h"
#include "proto/wire.h"
#include "tcp_test_support.h"

namespace scalla {
namespace {

using namespace std::chrono_literals;

TEST(TcpFabricTest, DeliversBetweenEndpoints) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink a, b;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));
  for (int i = 0; i < 10; ++i) fabric.Send(1, 2, SmallMessage());
  EXPECT_TRUE(b.WaitMessages(10));
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.messagesSent, 10u);
  EXPECT_EQ(c.framesSent, 10u);
  EXPECT_EQ(c.messagesDropped, 0u);
}

TEST(TcpFabricTest, PeerDownOnConnectRefused) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  net::FabricOptions cfg;
  cfg.connectTimeout = 500ms;
  CountingSink a;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  // Nothing listens at address 9: the writer's connect is refused and the
  // sender's endpoint hears about it asynchronously.
  fabric.Send(1, 9, SmallMessage());
  ASSERT_TRUE(a.WaitPeerDowns(1));
  EXPECT_EQ(a.lastDown, 9u);
  EXPECT_GE(fabric.GetCounters().messagesDropped, 1u);
}

TEST(TcpFabricTest, AddressPastTheLastPortHasNoPort) {
  // A band of its own at the top of the port range, above the other bands
  // (tcp_test_support.h) and the default ephemeral range. From base 65000
  // every address above 535 passes port 65535; cast to 16 bits, address
  // 65637 would bind 65101 and address 65636 would reach 65100, endpoint
  // 100's port, whose endpoint would take the frame as its own.
  constexpr std::uint16_t kTopBase = 65000;
  CountingSink low, high, last, wrapped;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(kTopBase);
  ASSERT_TRUE(fabric.Register(100, &low, nullptr));
  ASSERT_TRUE(fabric.Register(200, &high, nullptr));
  EXPECT_TRUE(fabric.Register(535, &last, nullptr));  // port 65535
  EXPECT_FALSE(fabric.Register(65637, &wrapped, nullptr));
  // A dial to such an address fails as a refused connect does.
  fabric.Send(200, 65636, SmallMessage());
  EXPECT_FALSE(low.WaitMessages(1, 300ms));
  ASSERT_TRUE(high.WaitPeerDowns(1));
  EXPECT_EQ(high.lastDown, 65636u);
  EXPECT_EQ(fabric.GetCounters().messagesDropped, 1u);
}

TEST(TcpFabricTest, PeerDownOnWriteDeadline) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  net::FabricOptions cfg;
  cfg.writeTimeout = 300ms;
  CountingSink a;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));

  // A listener that completes handshakes (backlog) but never accepts or
  // reads, with a tiny receive buffer: the peer is stuck, not dead.
  const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listenFd, 0);
  const int one = 1;
  ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int tiny = 4096;
  ::setsockopt(listenFd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(static_cast<std::uint16_t>(base + 7));
  ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(listenFd, 8), 0);

  // Far larger than any socket buffer pair: the write stalls past the
  // progress deadline, which the fabric treats as peer-down.
  proto::XrdWrite big;
  big.reqId = 1;
  big.data.assign(16 * 1024 * 1024, 'x');
  fabric.Send(1, 7, std::move(big));
  EXPECT_TRUE(a.WaitPeerDowns(1, 10s));
  EXPECT_EQ(a.lastDown, 7u);
  ::close(listenFd);
}

TEST(TcpFabricTest, ReconnectCountedAfterPeerRestart) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink a, b1, b2;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b1, nullptr));
  fabric.Send(1, 2, SmallMessage());
  ASSERT_TRUE(b1.WaitMessages(1));

  // Restart the peer: same address, fresh listener. The cached connection
  // is stale; the next frame must be retried on a fresh connect.
  fabric.Unregister(2);
  ASSERT_TRUE(fabric.Register(2, &b2, nullptr));
  // The send may race the restart's RST propagation; retry until the
  // reconnect path delivers.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (b2.Messages() == 0 && std::chrono::steady_clock::now() < deadline) {
    fabric.Send(1, 2, SmallMessage());
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_GE(b2.Messages(), 1);
  EXPECT_GE(fabric.GetCounters().reconnects, 1u);
}

TEST(TcpFabricTest, BoundedQueueOverflowDropsAndSignals) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  net::FabricOptions cfg;
  cfg.maxQueuedMessages = 2;
  CountingSink a, b;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  fabric.SetDelay(1, 2, 100ms);  // writer stalls; queue backs up
  for (int i = 0; i < 30; ++i) fabric.Send(1, 2, SmallMessage());
  const auto c = fabric.GetCounters();
  EXPECT_GE(c.queueOverflows, 1u);
  EXPECT_GE(c.messagesDropped, c.queueOverflows);
  EXPECT_TRUE(a.WaitPeerDowns(1));
  EXPECT_EQ(a.lastDown, 2u);

  fabric.SetDelay(1, 2, Duration::zero());
  // Whatever survived the bound still drains in order.
  EXPECT_TRUE(b.WaitMessages(1));
}

TEST(TcpFabricTest, MalformedFrameDisconnects) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink b;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  // Oversized length claim: the endpoint must drop the connection.
  int fd = RawConnect(base, 2);
  ASSERT_GE(fd, 0);
  char header[8];
  const std::uint32_t huge = 0xFFFFFFFFu, sender = 99;
  std::memcpy(header, &huge, 4);
  std::memcpy(header + 4, &sender, 4);
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL), 8);
  char buf[1];
  EXPECT_TRUE(WaitReadable(fd));  // the close arrives, not a timeout
  EXPECT_LE(::recv(fd, buf, 1, MSG_DONTWAIT), 0);  // remote closed
  ::close(fd);

  // Well-framed but undecodable body: same verdict.
  fd = RawConnect(base, 2);
  ASSERT_GE(fd, 0);
  const std::string junk = "\xFF\xFF\xFF\xFF garbage";
  const auto len = static_cast<std::uint32_t>(junk.size());
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &sender, 4);
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL), 8);
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  EXPECT_TRUE(WaitReadable(fd));
  EXPECT_LE(::recv(fd, buf, 1, MSG_DONTWAIT), 0);
  ::close(fd);

  EXPECT_EQ(b.Messages(), 0);
  EXPECT_EQ(fabric.GetCounters().messagesDelivered, 0u);
}

// A connection speaks for one peer: the first frame's sender decides
// where the endpoint's replies to it go, so a later frame naming anyone
// else closes the connection, as a bad length does.
TEST(TcpFabricTest, FrameNamingAnotherSenderDisconnects) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink b;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  const int fd = RawConnect(base, 2);
  ASSERT_GE(fd, 0);
  const std::string first = Frame(SmallMessage(), 9);
  ASSERT_EQ(::send(fd, first.data(), first.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(first.size()));
  ASSERT_TRUE(b.WaitMessages(1));
  const std::string spoofed = Frame(SmallMessage(), 10);
  ASSERT_EQ(::send(fd, spoofed.data(), spoofed.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(spoofed.size()));
  EXPECT_TRUE(WaitReadable(fd));  // the close arrives, not a timeout
  char buf[1];
  EXPECT_LE(::recv(fd, buf, 1, MSG_DONTWAIT), 0);  // remote closed
  ::close(fd);

  EXPECT_EQ(b.Messages(), 1);
  EXPECT_EQ(fabric.PerPeerCounters(10).messagesDelivered, 0u);
  EXPECT_TRUE(WaitFor([&] { return fabric.ReaderCount(2) == 0; }));
}

TEST(TcpFabricTest, FinishedReadersAreReaped) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink b;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  // A burst of short-lived clients: each connection's reader exits when
  // the client closes. The accept loop must reap them, not hoard them.
  for (int i = 0; i < 20; ++i) {
    const int fd = RawConnect(base, 2);
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  // Let the readers observe EOF, then trigger one more accept (reap point).
  std::this_thread::sleep_for(200ms);
  const int last = RawConnect(base, 2);
  ASSERT_GE(last, 0);
  std::this_thread::sleep_for(200ms);
  EXPECT_LE(fabric.ReaderCount(2), 2u);
  EXPECT_GE(fabric.ReaderCount(2), 1u);  // the live connection stays
  ::close(last);
}

TEST(TcpFabricTest, LinkCutDropsAndRestores) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink a, b;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  fabric.SetLinkCut(1, 2, true);
  fabric.Send(1, 2, SmallMessage());
  EXPECT_TRUE(a.WaitPeerDowns(1));
  EXPECT_EQ(b.Messages(), 0);

  fabric.SetLinkCut(1, 2, false);
  fabric.Send(1, 2, SmallMessage());
  EXPECT_TRUE(b.WaitMessages(1));
}

TEST(TcpFabricTest, DownedEndpointDropsBothDirections) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink a, b;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  fabric.SetDown(2, true);
  fabric.Send(1, 2, SmallMessage());
  EXPECT_TRUE(a.WaitPeerDowns(1));
  EXPECT_EQ(b.Messages(), 0);
  fabric.SetDown(2, false);
  fabric.Send(1, 2, SmallMessage());
  EXPECT_TRUE(b.WaitMessages(1));
}

TEST(TcpFabricTest, SilentDropLosesFramesWithoutSignal) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink a, b;  // sinks must outlive the fabric's loops
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  fabric.SetDrop(1, 2, true);
  for (int i = 0; i < 5; ++i) fabric.Send(1, 2, SmallMessage());
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(b.Messages(), 0);
  EXPECT_EQ(a.PeerDowns(), 0);  // lossy, not broken: no peer-down
  EXPECT_GE(fabric.GetCounters().messagesDropped, 5u);

  fabric.SetDrop(1, 2, false);
  fabric.Send(1, 2, SmallMessage());
  EXPECT_TRUE(b.WaitMessages(1));
}

// Acceptance: a stalled destination wedges only its own queue. While one
// peer is delayed half a second per frame, a burst to a healthy peer
// completes long before the wedged queue drains — impossible under the old
// one-lock-per-fabric design, where the delayed sends would serialize
// everything behind them.
TEST(TcpFabricTest, StalledPeerDelaysOnlyItsOwnQueue) {
  const auto base = NextBasePort(PortBand::kTcpFabric);
  CountingSink sender, wedged, healthy;  // sinks outlive the fabric
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &sender, nullptr));
  ASSERT_TRUE(fabric.Register(2, &wedged, nullptr));
  ASSERT_TRUE(fabric.Register(3, &healthy, nullptr));

  constexpr int kWedgedMsgs = 10;
  constexpr int kHealthyMsgs = 50;
  fabric.SetDelay(1, 2, 500ms);  // 10 frames -> >= 5 s to drain
  for (int i = 0; i < kWedgedMsgs; ++i) fabric.Send(1, 2, SmallMessage());
  for (int i = 0; i < kHealthyMsgs; ++i) fabric.Send(1, 3, SmallMessage());

  // The healthy peer's burst lands while the wedged queue has barely
  // moved.
  ASSERT_TRUE(healthy.WaitMessages(kHealthyMsgs, 4s));
  EXPECT_LT(wedged.Messages(), kWedgedMsgs);

  fabric.SetDelay(1, 2, Duration::zero());
  EXPECT_TRUE(wedged.WaitMessages(kWedgedMsgs, 10s));
}

}  // namespace
}  // namespace scalla
