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
// executor, and teardown from the dispatch thread or after Stop — and the
// shared connection of an endpoint pair: replies ride the socket the
// request came on, crossing dials each keep their own socket until one
// goes idle, an accepted reply path reconnects to a restarted peer, and
// options are validated when a fabric is built.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "net/tcp_fabric.h"
#include "sched/thread_executor.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
#include "tcp_test_support.h"

namespace scalla {
namespace {

using namespace std::chrono_literals;

// Checks per-pair order: every XrdClose, XrdWrite and XrdReadResp carries
// the next sequence number in its reqId, starting from 0. XrdReadResp data
// is checked the way CountingSink checks XrdWrite data (tests fill it
// with 'r').
struct SequenceSink : CountingSink {
  std::uint64_t nextSeq = 0;
  bool inOrder = true;
  std::uint64_t readBytes = 0;  // total XrdReadResp data received
  bool readIntact = true;       // every XrdReadResp data byte was 'r'

  void OnMessage(net::NodeAddr from, proto::Message message) override {
    std::uint64_t seq = 0;
    if (const auto* close = std::get_if<proto::XrdClose>(&message)) seq = close->reqId;
    if (const auto* write = std::get_if<proto::XrdWrite>(&message)) seq = write->reqId;
    const auto* read = std::get_if<proto::XrdReadResp>(&message);
    if (read != nullptr) seq = read->reqId;
    {
      std::lock_guard lock(mu);
      if (seq != nextSeq) inOrder = false;
      nextSeq = seq + 1;
      if (read != nullptr) {
        readBytes += read->data.size();
        if (read->data.find_first_not_of('r') != std::string::npos) readIntact = false;
      }
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

proto::XrdReadResp BigReadResp(std::uint64_t seq, std::size_t bytes) {
  proto::XrdReadResp resp;
  resp.reqId = seq;
  resp.data.assign(bytes, 'r');
  return resp;
}

// What a frame of `message` costs on the wire: the 8-byte header and the
// message's one-buffer encoding, however the sender splits it.
std::uint64_t WireBytes(const proto::Message& message) {
  return 8 + proto::Encode(message).size();
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  ASSERT_TRUE(WaitReadable(listenFd));
  const int peer = ::accept(listenFd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  std::string got(first.size(), '\0');
  ASSERT_TRUE(WaitReadable(peer));
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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

// Each thread counts into its own shard of the fabric's counters. Eight
// foreign threads (unregistered senders, whose sockets sit on the pool
// loops) and two hosted endpoints send small and 64 KiB frames to a hosted
// and a pooled receiver while another thread reads the counters the whole
// time. The foreign threads exit, and a late thread takes over a shard one
// of them left, before the final read: the totals and every peer's row
// equal what was sent, and no read saw a total go down.
TEST(FabricReactorTest, CountersStayExactAcrossThreads) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  constexpr net::NodeAddr kHostedRx = 1, kPooledRx = 2;
  constexpr net::NodeAddr kHostedTx[] = {3, 4};
  constexpr net::NodeAddr kForeign = 10;  // 10..17 send, 18 is the late thread
  constexpr int kForeignThreads = 8;
  constexpr int kSmall = 300;
  constexpr int kBig = 12;
  constexpr int kLate = 50;
  const std::uint64_t smallWire = WireBytes(SmallMessage());
  const std::uint64_t bigWire = WireBytes(BigWrite(0, 64 * 1024));
  const std::uint64_t perRxFrames = kSmall + kBig;
  const std::uint64_t perRxBytes = kSmall * smallWire + kBig * bigWire;

  CountingSink hostedRx, pooledRx, hostedTx[2];
  sched::ThreadExecutor rxExec, txExec[2];
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(kHostedRx, &hostedRx, &rxExec));
  ASSERT_TRUE(fabric.Register(kPooledRx, &pooledRx, nullptr));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fabric.Register(kHostedTx[i], &hostedTx[i], &txExec[i]));
  }
  // Small frames first, then the 64 KiB ones, to both receivers.
  const auto sendAll = [&fabric](net::NodeAddr from, int small, int big) {
    for (const net::NodeAddr to : {kHostedRx, kPooledRx}) {
      for (int i = 0; i < small; ++i) fabric.Send(from, to, SmallMessage());
      for (int i = 0; i < big; ++i) fabric.Send(from, to, BigWrite(0, 64 * 1024));
    }
  };

  std::atomic<bool> reading{true};
  std::atomic<int> reads{0};
  bool monotonic = true;
  std::thread reader([&] {
    net::Fabric::Counters last;
    while (reading.load()) {
      const auto c = fabric.GetCounters();
      if (c.messagesSent < last.messagesSent || c.framesSent < last.framesSent ||
          c.bytesSent < last.bytesSent || c.framesReceived < last.framesReceived ||
          c.bytesReceived < last.bytesReceived) {
        monotonic = false;
      }
      last = c;
      for (net::NodeAddr peer = kHostedRx; peer <= kForeign + kForeignThreads; ++peer) {
        (void)fabric.PerPeerCounters(peer);
      }
      ++reads;
    }
  });
  std::vector<std::thread> foreign;
  for (int t = 0; t < kForeignThreads; ++t) {
    foreign.emplace_back([&sendAll, t] {
      sendAll(static_cast<net::NodeAddr>(kForeign + t), kSmall, kBig);
    });
  }
  // The hosted senders send from their own loops, in tasks of 20 frames.
  for (int i = 0; i < 2; ++i) {
    for (int t = 0; t < kSmall / 20; ++t) {
      txExec[i].Post([&sendAll, from = kHostedTx[i]] { sendAll(from, 20, 0); });
    }
    txExec[i].Post([&sendAll, from = kHostedTx[i]] { sendAll(from, 0, kBig); });
  }
  for (auto& t : foreign) t.join();
  std::thread late([&sendAll] { sendAll(kForeign + kForeignThreads, kLate, 0); });
  late.join();

  const int senders = kForeignThreads + 2;
  const int perRx = senders * static_cast<int>(perRxFrames) + kLate;
  const std::uint64_t totalFrames = 2 * static_cast<std::uint64_t>(perRx);
  const std::uint64_t totalBytes = 2 * (senders * perRxBytes + kLate * smallWire);
  const bool delivered =
      hostedRx.WaitMessages(perRx, 30s) && pooledRx.WaitMessages(perRx, 30s);
  const bool quiet =
      delivered && WaitFor([&] { return fabric.GetCounters().bytesSent == totalBytes; });
  reading = false;
  reader.join();  // before any assertion can return
  ASSERT_TRUE(delivered);
  ASSERT_TRUE(quiet);
  EXPECT_GT(reads.load(), 0);
  EXPECT_TRUE(monotonic);

  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.messagesSent, totalFrames);
  EXPECT_EQ(c.framesSent, totalFrames);
  EXPECT_EQ(c.bytesSent, totalBytes);
  EXPECT_EQ(c.framesReceived, totalFrames);
  EXPECT_EQ(c.messagesDelivered, totalFrames);
  EXPECT_EQ(c.bytesReceived, totalBytes);
  EXPECT_EQ(c.messagesDropped, 0u);
  // A receiver's row holds what was sent to it; a sender's, what arrived
  // from it at both receivers.
  for (const net::NodeAddr rx : {kHostedRx, kPooledRx}) {
    const auto row = fabric.PerPeerCounters(rx);
    EXPECT_EQ(row.messagesSent, static_cast<std::uint64_t>(perRx)) << rx;
    EXPECT_EQ(row.framesSent, static_cast<std::uint64_t>(perRx)) << rx;
    EXPECT_EQ(row.bytesSent, senders * perRxBytes + kLate * smallWire) << rx;
    EXPECT_EQ(row.framesReceived, 0u) << rx;
  }
  std::vector<net::NodeAddr> txs(kHostedTx, kHostedTx + 2);
  for (int t = 0; t < kForeignThreads; ++t) {
    txs.push_back(static_cast<net::NodeAddr>(kForeign + t));
  }
  for (const net::NodeAddr tx : txs) {
    const auto row = fabric.PerPeerCounters(tx);
    EXPECT_EQ(row.framesReceived, 2 * perRxFrames) << tx;
    EXPECT_EQ(row.messagesDelivered, 2 * perRxFrames) << tx;
    EXPECT_EQ(row.bytesReceived, 2 * perRxBytes) << tx;
    EXPECT_EQ(row.messagesSent, 0u) << tx;
  }
  const auto lateRow = fabric.PerPeerCounters(kForeign + kForeignThreads);
  EXPECT_EQ(lateRow.framesReceived, 2u * kLate);
  EXPECT_EQ(lateRow.bytesReceived, 2 * kLate * smallWire);
  EXPECT_TRUE(hostedRx.payloadIntact);
  EXPECT_TRUE(pooledRx.payloadIntact);
  EXPECT_EQ(hostedTx[0].PeerDowns() + hostedTx[1].PeerDowns(), 0);
}

// ---- frames with a bulk payload (XrdReadResp, XrdWrite) ----
// The sender writes such a frame as two iovecs, its fields then its data;
// these tests pin that the receiver cannot tell.

// 64 KiB payload frames interleaved with small frames on one pair arrive
// whole and in order, both when this thread writes each frame through to
// the idle pair and when a backlogged executor leaves them to the loop's
// batched sendmsg. The counters charge each frame its one-buffer size.
TEST(FabricReactorTest, PayloadFramesInterleaveInOrderOnBothSendPaths) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  CountingSink a;
  SequenceSink b;
  sched::ThreadExecutor txExec;  // a sender with a backlog; outlives the fabric
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  constexpr std::size_t k64K = 64 * 1024;
  const auto frameOf = [](std::uint64_t seq) -> proto::Message {
    switch (seq % 3) {
      case 0:
        return BigReadResp(seq, k64K);
      case 1:
        return Sequenced(seq);
      default:
        return BigWrite(seq, k64K);
    }
  };
  std::uint64_t seq = 0;
  std::uint64_t wireBytes = 0;
  const auto send = [&](std::uint64_t s) { fabric.Send(1, 2, frameOf(s)); };

  // Write-through: every frame finds the pair idle.
  for (int i = 0; i < 30; ++i) {
    wireBytes += WireBytes(frameOf(seq));
    send(seq++);
    ASSERT_TRUE(WaitFor([&] { return fabric.PerPeerCounters(2).framesSent == seq; }));
  }

  // Backlogged: each task runs with more tasks queued behind it, so its
  // frames queue for the loop.
  constexpr int kTasks = 10;
  constexpr int kPerTask = 9;
  std::promise<void> release;
  std::atomic<int> backlogged{0};
  txExec.Post([released = release.get_future().share()] { released.wait(); });
  for (int t = 0; t < kTasks; ++t) {
    const std::uint64_t first = seq + static_cast<std::uint64_t>(t * kPerTask);
    txExec.Post([&, first] {
      backlogged += sched::CallerHasBacklog();
      for (int i = 0; i < kPerTask; ++i) send(first + static_cast<std::uint64_t>(i));
    });
  }
  for (int i = 0; i < kTasks * kPerTask; ++i) wireBytes += WireBytes(frameOf(seq++));
  release.set_value();

  ASSERT_TRUE(b.WaitMessages(static_cast<int>(seq), 30s));
  EXPECT_TRUE(b.InOrder());
  EXPECT_TRUE(b.payloadIntact);
  EXPECT_TRUE(b.readIntact);
  EXPECT_EQ(b.payloadBytes, (seq / 3) * k64K);       // seq % 3 == 2
  EXPECT_EQ(b.readBytes, ((seq + 2) / 3) * k64K);    // seq % 3 == 0
  EXPECT_GT(backlogged.load(), 0);
  ASSERT_TRUE(WaitFor([&] { return fabric.PerPeerCounters(2).framesSent == seq; }));
  const auto toB = fabric.PerPeerCounters(2);
  EXPECT_EQ(toB.bytesSent, wireBytes);
  EXPECT_EQ(fabric.PerPeerCounters(1).bytesReceived, wireBytes);
  EXPECT_EQ(toB.messagesDropped, 0u);
  EXPECT_EQ(toB.reconnects, 0u);
}

// A 4 KiB send buffer makes the kernel take about one segment per write,
// so writes stop part-way through frames and resume from an offset.
// First, 64 KiB payloads among tiny payload frames and small frames: writes
// stop inside the data. Then passes of two payload frames queued together,
// `lead` bytes of data and then one byte behind 37 bytes of header and
// fields, with `lead` stepping by 7: wherever in that range the kernel cuts
// a write that starts at a frame boundary, some pass cuts it inside the
// second frame's fields. (On loopback with a 64 KiB MTU a write takes
// 65483 bytes.)
TEST(FabricReactorTest, PayloadFramesSurvivePartialWritesAnywhere) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  net::FabricOptions cfg;
  cfg.sendBufferBytes = 4096;
  CountingSink a;
  SequenceSink b;
  sched::ThreadExecutor txExec;  // hosts the sender; outlives the fabric
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, &txExec));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  std::uint64_t seq = 0;
  std::uint64_t writeBytes = 0;
  std::uint64_t readBytes = 0;
  std::uint64_t wireBytes = 0;
  const auto account = [&](const proto::Message& m) {
    wireBytes += WireBytes(m);
    if (const auto* w = std::get_if<proto::XrdWrite>(&m)) writeBytes += w->data.size();
    if (const auto* r = std::get_if<proto::XrdReadResp>(&m)) readBytes += r->data.size();
  };
  for (int round = 0; round < 300; ++round) {
    const std::size_t tiny = 1 + static_cast<std::size_t>(round % 3);
    const std::size_t big = 64 * 1024 + static_cast<std::size_t>(round % 7);
    std::vector<proto::Message> frames;
    frames.emplace_back(BigWrite(seq++, tiny));
    frames.emplace_back(BigReadResp(seq++, tiny));
    frames.emplace_back(Sequenced(seq++));
    if (round % 10 == 0) {
      frames.emplace_back(BigReadResp(seq++, big));
      frames.emplace_back(BigWrite(seq++, big));
    }
    for (auto& m : frames) {
      account(m);
      fabric.Send(1, 2, std::move(m));
    }
  }
  ASSERT_TRUE(WaitFor([&] { return fabric.PerPeerCounters(2).framesSent == seq; }, 30s));

  for (std::size_t lead = 65300; lead < 65560; lead += 7) {
    const std::uint64_t first = seq;
    seq += 2;
    proto::Message leading = BigReadResp(first, lead);
    proto::Message behind = BigWrite(first + 1, 1);
    account(leading);
    account(behind);
    // The sender's own loop, with a task queued behind this one, leaves
    // both frames to one drain pass: its write starts at a frame boundary.
    txExec.Post([&fabric, &txExec, leading = std::move(leading),
                 behind = std::move(behind)]() mutable {
      txExec.Post([] {});
      fabric.Send(1, 2, std::move(leading));
      fabric.Send(1, 2, std::move(behind));
    });
    ASSERT_TRUE(WaitFor([&] { return fabric.PerPeerCounters(2).framesSent == seq; }));
  }

  ASSERT_TRUE(b.WaitMessages(static_cast<int>(seq), 30s));
  EXPECT_TRUE(b.InOrder());
  EXPECT_TRUE(b.payloadIntact);
  EXPECT_TRUE(b.readIntact);
  EXPECT_EQ(b.payloadBytes, writeBytes);
  EXPECT_EQ(b.readBytes, readBytes);
  EXPECT_EQ(fabric.PerPeerCounters(2).bytesSent, wireBytes);
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.framesReceived, seq);
  EXPECT_EQ(c.messagesDropped, 0u);
  EXPECT_EQ(c.reconnects, 0u);
}

// The torn-frame rule for a payload frame: a drop injected while the
// frame is half written loses it and closes the socket, so the receiver
// never parses the spliced stream, and the next frame reconnects.
TEST(FabricReactorTest, DropMidPayloadFrameClosesAndNextFrameReconnects) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  struct GatedSink : CountingSink {
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    bool opened = false;  // test thread only
    void Open() {
      if (!opened) gate.set_value();
      opened = true;
    }
    void OnMessage(net::NodeAddr from, proto::Message message) override {
      if (Messages() == 0) open.wait();  // the first frame holds the loop
      CountingSink::OnMessage(from, std::move(message));
    }
  };
  net::FabricOptions cfg;
  cfg.sendBufferBytes = 4096;
  sched::ThreadExecutor rxExec;
  GatedSink rx;
  CountingSink tx;
  net::TcpFabric fabric(base, cfg);
  // Declared after the fabric, so it runs first on every exit: a failed
  // assertion must not leave rxExec blocked for ~TcpFabric to wait on.
  struct OpenOnExit {
    GatedSink& sink;
    ~OpenOnExit() { sink.Open(); }
  } openOnExit{rx};
  ASSERT_TRUE(fabric.Register(1, &tx, nullptr));
  ASSERT_TRUE(fabric.Register(2, &rx, &rxExec));

  fabric.Send(1, 2, SmallMessage());  // the receiver stops reading on it
  ASSERT_TRUE(WaitFor([&] { return fabric.PerPeerCounters(2).framesSent == 1; }));
  // 4 MiB cannot fit the kernel buffers of a receiver that is not reading:
  // the frame stalls part-way through its data.
  fabric.Send(1, 2, BigWrite(1, 4 << 20));
  std::uint64_t sent = 0;
  ASSERT_TRUE(WaitFor([&] {
    const std::uint64_t now = fabric.PerPeerCounters(2).bytesSent;
    const bool still = now == sent;
    sent = now;
    std::this_thread::sleep_for(20ms);
    return still && now > WireBytes(SmallMessage());
  }));
  EXPECT_EQ(fabric.PerPeerCounters(2).framesSent, 1u);
  EXPECT_EQ(fabric.ActiveOutboundConnections(), 1u);

  // Drop the pair, then let the receiver drain: the sender's next write
  // pass finds the fault with the frame torn and closes the socket.
  fabric.SetDrop(1, 2, true);
  rx.Open();
  ASSERT_TRUE(WaitFor([&] { return fabric.ActiveOutboundConnections() == 0; }));
  EXPECT_EQ(fabric.PerPeerCounters(2).messagesDropped, 1u);

  fabric.SetDrop(1, 2, false);
  fabric.Send(1, 2, SmallMessage());
  ASSERT_TRUE(rx.WaitMessages(2));
  EXPECT_EQ(rx.payloadBytes, 0u);  // no part of the torn frame was delivered
  // The loop counts a drained frame once its sendmsg returns, which can be
  // after the receiver has handled it.
  ASSERT_TRUE(WaitFor([&] { return fabric.PerPeerCounters(2).framesSent == 2; }));
  EXPECT_EQ(fabric.PerPeerCounters(2).reconnects, 1u);
  EXPECT_EQ(tx.PeerDowns(), 0);
  EXPECT_EQ(rx.PeerDowns(), 0);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
  CountingSink sinkA, sinkB;  // sinks must outlive the fabric
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &sinkA, nullptr));
  ASSERT_TRUE(fabric.Register(2, &sinkB, nullptr));
  RunFaultScenario(fabric, 1, 2, sinkA, sinkB, TcpHooks());
}

// The same contract with both endpoints hosted on their own loops: every
// socket of each lives on its ThreadExecutor and frames arrive inline.
TEST(FaultInjectorContractTest, TcpFabricHostedEndpoints) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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
  const auto base = NextBasePort(PortBand::kFabricReactor);
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

// ---- one connection per endpoint pair ----

// Answers every XrdClose with the same message back to its sender.
struct EchoSink : SequenceSink {
  EchoSink(net::Fabric& fabric, net::NodeAddr self) : fabric(fabric), self(self) {}
  void OnMessage(net::NodeAddr from, proto::Message message) override {
    fabric.Send(self, from, message);
    SequenceSink::OnMessage(from, std::move(message));
  }
  net::Fabric& fabric;
  const net::NodeAddr self;
};

// The server answers on the socket its client dialed: one socket serves
// the pair, so the client's ACKs ride its next request and the server's
// ride its replies. Once the client reaps that socket idle, its next
// request dials again and the server's new accepted socket takes the pair
// over from the closed one, so the pair is still served by one socket.
TEST(SharedConnectionTest, RequestReplyLeavesOneSocketPerPair) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  net::FabricOptions cfg;
  cfg.idleTimeout = 300ms;
  sched::ThreadExecutor clientExec, serverExec;
  net::TcpFabric fabric(base, cfg);
  SequenceSink client;
  EchoSink server(fabric, 2);
  ASSERT_TRUE(fabric.Register(1, &client, &clientExec));
  ASSERT_TRUE(fabric.Register(2, &server, &serverExec));

  constexpr int kRequests = 500;
  for (int round = 1; round <= 2; ++round) {
    clientExec.Post([&fabric, round] {
      for (int seq = (round - 1) * kRequests; seq < round * kRequests; ++seq) {
        fabric.Send(1, 2, Sequenced(seq));
      }
    });
    ASSERT_TRUE(client.WaitMessages(round * kRequests));
    EXPECT_EQ(fabric.ActiveOutboundConnections(), 1u) << "round " << round;
    EXPECT_EQ(fabric.ReaderCount(2), 1u) << "round " << round;
    EXPECT_EQ(fabric.ReaderCount(1), 0u) << "round " << round;
    if (round == 1) {  // the client reaps its quiet socket
      ASSERT_TRUE(WaitFor([&] { return fabric.ActiveOutboundConnections() == 0; }));
      ASSERT_TRUE(WaitFor([&] { return fabric.ReaderCount(2) == 0; }));
    }
  }
  EXPECT_TRUE(client.InOrder());
  EXPECT_TRUE(server.InOrder());
  // A frame is counted once its write returns, so the server's last
  // replies can reach the client before its loop counts them.
  ASSERT_TRUE(WaitFor([&] { return fabric.GetCounters().framesSent >= 4u * kRequests; }));
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.framesSent, 4u * kRequests);
  EXPECT_EQ(c.messagesDelivered, 4u * kRequests);
  EXPECT_EQ(c.messagesDropped, 0u);
  EXPECT_EQ(c.idleReaps, 1u);
  EXPECT_EQ(c.reconnects, 0u);
  EXPECT_EQ(client.PeerDowns() + server.PeerDowns(), 0);
}

// Endpoints 1 and 2, hosted on `execA` and `execB`, each send `frames`
// sequenced frames to the other while neither loop can run, so each dials
// the other before it can accept: two sockets serve the pair.
void SendCrossing(net::TcpFabric& fabric, sched::ThreadExecutor& execA,
                  sched::ThreadExecutor& execB, std::uint64_t frames) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  execA.Post([released] { released.wait(); });
  execB.Post([released] { released.wait(); });
  for (std::uint64_t seq = 0; seq < frames; ++seq) {
    fabric.Send(1, 2, Sequenced(seq));
    fabric.Send(2, 1, Sequenced(seq));
  }
  release.set_value();
}

// Both ends send before either loop can accept, so each dials the other:
// each keeps sending on the socket it dialed, receives on the one it
// accepted, and both directions deliver in order.
TEST(SharedConnectionTest, CrossingDialsBothDeliverInOrder) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  sched::ThreadExecutor execA, execB;
  SequenceSink a, b;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, &execA));
  ASSERT_TRUE(fabric.Register(2, &b, &execB));

  constexpr int kFrames = 200;
  SendCrossing(fabric, execA, execB, kFrames);
  ASSERT_TRUE(a.WaitMessages(kFrames));
  ASSERT_TRUE(b.WaitMessages(kFrames));
  EXPECT_EQ(fabric.ActiveOutboundConnections(), 2u);
  EXPECT_EQ(fabric.ReaderCount(1), 1u);
  EXPECT_EQ(fabric.ReaderCount(2), 1u);

  // Later frames stay on the sockets each end dialed.
  for (std::uint64_t seq = kFrames; seq < 2 * kFrames; ++seq) {
    fabric.Send(1, 2, Sequenced(seq));
    fabric.Send(2, 1, Sequenced(seq));
  }
  ASSERT_TRUE(a.WaitMessages(2 * kFrames));
  ASSERT_TRUE(b.WaitMessages(2 * kFrames));
  EXPECT_TRUE(a.InOrder());
  EXPECT_TRUE(b.InOrder());
  EXPECT_EQ(fabric.ActiveOutboundConnections(), 2u);
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.messagesDelivered, 4u * kFrames);
  EXPECT_EQ(c.messagesDropped, 0u);
  EXPECT_EQ(c.reconnects, 0u);
  EXPECT_EQ(a.PeerDowns() + b.PeerDowns(), 0);
}

// After crossing dials, an end whose own socket goes quiet reaps it and
// moves the pair to the socket the other end dialed: its next frames ride
// that socket, and the pair is back to one connection.
TEST(SharedConnectionTest, IdleReapedPairMovesToTheCrossingSocket) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  net::FabricOptions cfg;
  cfg.idleTimeout = 200ms;
  sched::ThreadExecutor execA, execB;
  SequenceSink a, b;
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, &execA));
  ASSERT_TRUE(fabric.Register(2, &b, &execB));

  constexpr std::uint64_t kFrames = 50;
  SendCrossing(fabric, execA, execB, kFrames);
  ASSERT_TRUE(a.WaitMessages(kFrames));
  ASSERT_TRUE(b.WaitMessages(kFrames));
  ASSERT_EQ(fabric.ActiveOutboundConnections(), 2u);

  // 2 keeps talking to 1 on its own dial; 1's dial carries nothing now.
  std::uint64_t seqToA = kFrames;
  ASSERT_TRUE(WaitFor([&] {
    fabric.Send(2, 1, Sequenced(seqToA++));
    std::this_thread::sleep_for(20ms);
    return fabric.GetCounters().idleReaps >= 1;
  }));
  EXPECT_EQ(fabric.ActiveOutboundConnections(), 1u);

  for (std::uint64_t seq = kFrames; seq < 2 * kFrames; ++seq) {
    fabric.Send(1, 2, Sequenced(seq));
  }
  ASSERT_TRUE(b.WaitMessages(2 * kFrames));
  ASSERT_TRUE(a.WaitMessages(static_cast<int>(seqToA)));
  EXPECT_TRUE(a.InOrder());
  EXPECT_TRUE(b.InOrder());
  EXPECT_EQ(fabric.ActiveOutboundConnections(), 1u);  // no second dial
  EXPECT_TRUE(WaitFor([&] { return fabric.ReaderCount(2) == 0; }));
  EXPECT_EQ(fabric.ReaderCount(1), 1u);
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.idleReaps, 1u);
  EXPECT_EQ(c.messagesDropped, 0u);
  EXPECT_EQ(c.reconnects, 0u);
  EXPECT_EQ(a.PeerDowns() + b.PeerDowns(), 0);
}

// The server's path to its client is the socket the client dialed. When
// the client leaves, that path goes stale: a restarted client gets the
// server's next frame over a fresh dial, counted as a reconnect, and a
// client that stays gone ends in OnPeerDown.
TEST(SharedConnectionTest, AcceptedReplyPathReconnectsToRestartedClient) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  sched::ThreadExecutor clientExec, serverExec;
  net::TcpFabric fabric(base);
  CountingSink client, restarted;
  EchoSink server(fabric, 2);
  ASSERT_TRUE(fabric.Register(1, &client, &clientExec));
  ASSERT_TRUE(fabric.Register(2, &server, &serverExec));
  fabric.Send(1, 2, Sequenced(0));
  ASSERT_TRUE(client.WaitMessages(1));  // the echo rode the client's socket
  ASSERT_EQ(fabric.ActiveOutboundConnections(), 1u);

  fabric.Unregister(1);
  ASSERT_TRUE(fabric.Register(1, &restarted, &clientExec));
  fabric.Send(2, 1, Sequenced(1));
  ASSERT_TRUE(restarted.WaitMessages(1));
  EXPECT_GE(fabric.GetCounters().reconnects, 1u);
  EXPECT_EQ(server.PeerDowns(), 0);
  EXPECT_EQ(client.Messages(), 1);

  fabric.Unregister(1);
  fabric.Send(2, 1, Sequenced(2));
  ASSERT_TRUE(server.WaitPeerDowns(1));
  EXPECT_EQ(server.lastDown, 1u);
}

// Destroying a ThreadExecutor that still hosts a registered endpoint
// aborts with a message, rather than leaving the fabric a dangling loop.
TEST(HostedEndpointDeathTest, ExecutorDestroyedWhileHostingAborts) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  EXPECT_DEATH(
      {
        CountingSink sink;
        net::TcpFabric fabric(base);
        auto exec = std::make_unique<sched::ThreadExecutor>();
        if (fabric.Register(1, &sink, exec.get())) exec.reset();
      },
      "still hosts");
}

// Options no transport can run with stop both at construction with the
// validation message, instead of refusing every frame later.
TEST(FabricOptionsDeathTest, InvalidOptionsAbortAtConstruction) {
  const auto base = NextBasePort(PortBand::kFabricReactor);
  EXPECT_DEATH({ net::TcpFabric fabric(base, {.maxQueuedMessages = 0}); },
               "fabric.queuedepth must be a positive integer");
  EXPECT_DEATH(
      {
        sim::EventEngine engine;
        sim::SimFabric fabric(engine, {}, {.writeTimeout = std::chrono::milliseconds(0)});
      },
      "fabric.writetimeout must be a positive duration");
}

}  // namespace
}  // namespace scalla
