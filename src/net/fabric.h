// Message fabric: how nodes and clients address and reach each other.
// Two implementations ship:
//   - sim::SimFabric : in-process, latency-modeled, virtual time — used by
//     tests and the latency/scaling benchmarks;
//   - net::TcpFabric : length-framed messages over loopback TCP sockets,
//     multiplexed onto epoll event loops — used by the
//     multi-endpoint integration tests ("multi-process test on one server"
//     per the reproduction band; endpoints are isolated actors that only
//     communicate through real sockets).
// Node logic is written once against this interface; chaos tests are
// written once against the FaultInjector surface, which both transports
// implement in full.
#pragma once

#include <chrono>
#include <cstdint>

#include "proto/messages.h"
#include "util/result.h"
#include "util/types.h"

namespace scalla::net {

/// Flat address of a participant (node or client) on a fabric.
using NodeAddr = std::uint32_t;

/// Transport tuning, shared by every fabric implementation. One struct is
/// parsed once from the `fabric.*` config directives and handed to the
/// transport constructor; SimFabric accepts the same struct so sim and TCP
/// deployments configure identically (the simulator honours the queue
/// bound semantically and ignores socket-level knobs, which it documents
/// rather than hides).
struct FabricOptions {
  /// Bounded per-(from,to) outbound queue; enqueueing past this drops the
  /// message, counts an overflow, and signals OnPeerDown.
  std::size_t maxQueuedMessages = 4096;
  /// Non-blocking connect() deadline, enforced by an event-loop timer.
  std::chrono::milliseconds connectTimeout{1000};
  /// Write-progress deadline: a connection that cannot complete a frame
  /// within this window (no writable readiness, or a peer that stopped
  /// draining) is treated as broken and the peer marked down.
  std::chrono::milliseconds writeTimeout{2000};
  /// Idle-connection reaping: a connection with no traffic either way for
  /// this long is quietly closed by the end that dialed it and
  /// re-established transparently on the next send (no OnPeerDown). Zero
  /// disables reaping.
  std::chrono::milliseconds idleTimeout{0};
  /// SO_SNDBUF for every socket the fabric sends on, dialed or accepted
  /// (replies ride the accepted side); 0 keeps the OS default. Tests force
  /// a tiny buffer to exercise partial-write framing.
  std::size_t sendBufferBytes = 0;
};

/// Rejects out-of-range options with a descriptive error (used by the
/// config loader so bad `fabric.*` directives fail loudly, and by
/// transports at construction through RequireValidFabricOptions).
Result<void> ValidateFabricOptions(const FabricOptions& options);

/// Aborts with ValidateFabricOptions' message when `options` are out of
/// range. Both transports call it in their constructors: a zero queue
/// depth, say, would otherwise refuse every frame.
void RequireValidFabricOptions(const FabricOptions& options);

/// Receives messages delivered by the fabric. Handlers run on the
/// receiver's executor: the sim event loop, or on TCP the endpoint's
/// ThreadExecutor, which reads the endpoint's sockets and calls the sink
/// inline (a handler that blocks stalls the endpoint's reads). Another
/// Executor gets each message posted; endpoints registered without an
/// executor get callbacks inline on a pool loop thread and must not block.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void OnMessage(NodeAddr from, proto::Message message) = 0;
  /// A peer became unreachable (TCP: connection failed; sim: injected).
  virtual void OnPeerDown(NodeAddr peer) { (void)peer; }
};

/// Uniform fault-injection surface. Every transport implements every knob,
/// so chaos scenarios are written once against Fabric* and run unchanged
/// over the simulator and over real sockets.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Downed endpoints drop everything in and out; senders get OnPeerDown
  /// on each dropped message (models a broken connection).
  virtual void SetDown(NodeAddr addr, bool down) = 0;
  /// Cuts (or restores) the bidirectional link between two endpoints;
  /// senders get OnPeerDown (the connection visibly breaks).
  virtual void SetLinkCut(NodeAddr a, NodeAddr b, bool cut) = 0;
  /// Silently discards traffic from -> to (one-way lossy link); unlike a
  /// cut the sender is NOT told, modelling loss the transport hides.
  virtual void SetDrop(NodeAddr from, NodeAddr to, bool drop) = 0;
  /// Adds a one-way delay before each frame from -> to leaves the sender
  /// (per-pair, so it stalls only that pair's queue). Zero clears it.
  virtual void SetDelay(NodeAddr from, NodeAddr to, Duration delay) = 0;
  /// Wedges an endpoint: the process hangs but its connections stay "up",
  /// so everything it sends or receives is silently lost and NO peer gets
  /// OnPeerDown — the failure mode only a heartbeat can detect.
  virtual void SetWedged(NodeAddr addr, bool wedged) = 0;
};

class Fabric : public FaultInjector {
 public:
  /// Delivers `message` from `from` to `to`. Asynchronous and unordered
  /// across peers; ordered per (from,to) pair. Silently drops messages to
  /// unknown or partitioned destinations (the resolution protocol treats
  /// non-response as a negative answer, so loss maps onto protocol
  /// semantics rather than errors).
  virtual void Send(NodeAddr from, NodeAddr to, proto::Message message) = 0;

  struct Counters {
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesDelivered = 0;
    std::uint64_t messagesDropped = 0;
    // Wire-level counters; only transports with real framing (TcpFabric)
    // populate these, the in-process sim fabric leaves them zero.
    std::uint64_t framesSent = 0;
    std::uint64_t framesReceived = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t reconnects = 0;  // stale cached connections replaced
    std::uint64_t idleReaps = 0;   // idle connections quietly closed
    // Messages rejected because a per-peer bounded outbound queue was
    // full (TcpFabric only; a full queue also signals OnPeerDown).
    std::uint64_t queueOverflows = 0;
  };
  virtual Counters GetCounters() const = 0;

  /// Traffic attributed to one remote peer: frames/bytes sent TO `peer`
  /// and frames/bytes received FROM `peer`, whichever socket carried them
  /// (on TCP one connection carries a pair both ways), and the message
  /// counts for that link. Lets bench_fabric and the obs stats tree
  /// attribute wire traffic to individual links.
  virtual Counters PerPeerCounters(NodeAddr peer) const = 0;
};

}  // namespace scalla::net
