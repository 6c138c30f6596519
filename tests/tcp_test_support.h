// Shared support for the loopback TCP test binaries: port bands, a sink
// that counts what an endpoint is handed, raw frames, and socket and
// polling helpers.
//
// An endpoint at address `addr` listens on basePort + addr, and ctest runs
// the binaries in parallel, so each binary draws its base ports from a band
// of its own, and the bands are disjoint by construction. Each call returns
// the next window of kWindow ports (addresses 0..kWindow-1), so the tests
// of one binary do not meet each other's sockets either; a binary that
// calls once may use its whole band (the fabric soak's receivers are
// 201..250). The bands sit above perfbench (12000+) and bench_fabric
// (14000-15535) and below the ephemeral range (32768+), where an outbound
// socket could squat on a listener port. tcp_fabric_test's case for an
// address past the last port alone uses base 65000, above the default
// ephemeral range's end (60999).
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "net/fabric.h"
#include "proto/wire.h"

namespace scalla {

// One band per test binary.
enum class PortBand { kTcpFabric, kFabricReactor, kFabricSoak, kTcpCluster, kChaos, kPcache,
                      kTcpFederation, kFabricAlloc, kCount };

inline constexpr int kFirstBandPort = 16000;
inline constexpr int kBandPorts = 2000;  // per binary
inline constexpr int kWindow = 100;      // per NextBasePort call
static_assert(kFirstBandPort + static_cast<int>(PortBand::kCount) * kBandPorts <= 32768,
              "port bands must stay below the ephemeral port range");

/// The next base port of `band`. A binary that makes more than
/// kBandPorts / kWindow calls starts again at its band's first window.
inline std::uint16_t NextBasePort(PortBand band) {
  static std::atomic<int> calls[static_cast<int>(PortBand::kCount)];
  const int b = static_cast<int>(band);
  const int window = calls[b].fetch_add(1) % (kBandPorts / kWindow);
  return static_cast<std::uint16_t>(kFirstBandPort + b * kBandPorts + window * kWindow);
}

/// Counts the messages and peer-down signals an endpoint receives, and
/// checks XrdWrite payloads (tests fill them with 'w').
struct CountingSink : net::MessageSink {
  std::mutex mu;
  std::condition_variable cv;
  int messages = 0;
  int peerDowns = 0;
  net::NodeAddr lastDown = 0;
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
  void OnPeerDown(net::NodeAddr peer) override {
    std::lock_guard lock(mu);
    ++peerDowns;
    lastDown = peer;
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
  bool WaitMessages(int n, Duration timeout = std::chrono::seconds(10)) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return messages >= n; });
  }
  bool WaitPeerDowns(int n, Duration timeout = std::chrono::seconds(10)) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return peerDowns >= n; });
  }
};

inline proto::Message SmallMessage() { return proto::XrdClose{1, 2}; }

/// [u32 length][u32 sender][body], as TcpFabric frames it.
inline std::string Frame(const proto::Message& message, net::NodeAddr sender) {
  const std::string body = proto::Encode(message);
  const auto length = static_cast<std::uint32_t>(body.size());
  std::string frame(8, '\0');
  std::memcpy(frame.data(), &length, 4);
  std::memcpy(frame.data() + 4, &sender, 4);
  return frame + body;
}

/// Polls `done` until it holds; false once `timeout` has passed.
inline bool WaitFor(const std::function<bool()>& done,
                    Duration timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Polls `fd` until it is readable (data, a pending connection on a
/// listener, or the peer's close); false once `timeout` has passed. Raw
/// socket tests wait with it instead of a blocking call, so a regression
/// fails the test rather than hanging the binary.
inline bool WaitReadable(int fd, std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, static_cast<int>(timeout.count())) == 1;
}

/// A raw loopback client socket connected to basePort+addr, or -1.
inline int RawConnect(std::uint16_t basePort, net::NodeAddr addr) {
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

}  // namespace scalla
