// Loopback TCP transport on the epoll reactor: each registered endpoint
// gets a listening socket on basePort+addr; frames are [u32 length][u32
// senderAddr][encoded message]. Listeners, inbound connections and
// outbound connections are all non-blocking readiness handlers owned by
// one of FabricOptions::loopThreads event loops, so the thread count is
// fixed regardless of how many endpoints or connections exist (the old
// design spent one writer thread per (from,to) pair plus one reader
// thread per accepted socket).
//
// Each (from, to) pair still owns an independent connection object with a
// bounded outbound queue, so traffic to one peer never serializes behind
// traffic to another and a wedged destination backs up only its own
// queue. Send writes a frame through to the pair's connected socket on
// the calling thread when the pair's queue is empty, no delay is injected
// and the caller is not an executor with tasks still queued: a lone frame
// then costs one send() and no loop wake-up. Everything else is queued
// for the owning loop, which drains a backlog with one writev (sendmsg)
// per readiness wakeup and owns connect, partial writes, deadlines, delay
// pacing and idle reaping. Receives read into a reusable buffer that is
// never zero-filled, and frame buffers are pooled, so steady-state
// traffic allocates nothing per message.
//
// Failure signalling is asynchronous: a failed connect (timer-based
// deadline), an expired write-progress deadline, or a queue overflow
// marks the peer down and fires the sending endpoint's OnPeerDown —
// exactly the signal the cmsd uses to mark a subordinate offline. A
// connection that made progress (>= 1 complete frame) before breaking is
// treated as a stale cached connection and transparently re-established
// once; only a connection that never progresses fails the peer, so a
// restarting peer costs one reconnect, not an OnPeerDown storm.
//
// Fault injection implements the full net::FaultInjector surface
// (SetDown / SetLinkCut / SetDrop / SetDelay / SetWedged), so chaos
// scenarios written against Fabric* run unchanged over real sockets.
//
// Incoming messages are posted to the endpoint's executor, so node code
// keeps its single-threaded actor discipline; endpoints registered
// without an executor get their sink called inline on a loop thread and
// must not block.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "net/fabric.h"
#include "net/fault_table.h"
#include "net/reactor.h"
#include "sched/executor.h"
#include "util/types.h"

namespace scalla::net {

class TcpFabric final : public Fabric {
 public:
  /// Endpoints listen on 127.0.0.1:basePort+addr.
  explicit TcpFabric(std::uint16_t basePort, FabricOptions options = {});
  ~TcpFabric() override;

  TcpFabric(const TcpFabric&) = delete;
  TcpFabric& operator=(const TcpFabric&) = delete;

  /// Binds an endpoint: registers its listener on a reactor loop. Returns
  /// false if the port could not be bound.
  bool Register(NodeAddr addr, MessageSink* sink, sched::Executor* executor);
  /// Tears an endpoint down. On return no further OnMessage/OnPeerDown for
  /// this endpoint is running or will start (the teardown runs a barrier
  /// on every reactor loop), so the caller may destroy the sink/executor.
  void Unregister(NodeAddr addr);

  // ---- Fabric ----
  void Send(NodeAddr from, NodeAddr to, proto::Message message) override;
  Counters GetCounters() const override;
  Counters PerPeerCounters(NodeAddr peer) const override;

  // ---- FaultInjector ----
  void SetDown(NodeAddr addr, bool down) override { faults_.SetDown(addr, down); }
  void SetLinkCut(NodeAddr a, NodeAddr b, bool cut) override { faults_.SetLinkCut(a, b, cut); }
  void SetDrop(NodeAddr from, NodeAddr to, bool drop) override {
    faults_.SetDrop(from, to, drop);
  }
  void SetDelay(NodeAddr from, NodeAddr to, Duration delay) override {
    faults_.SetDelay(from, to, delay);
  }
  void SetWedged(NodeAddr addr, bool wedged) override { faults_.SetWedged(addr, wedged); }

  /// Live inbound connections accepted by `addr`'s listener (closed ones
  /// are removed immediately) — observability for connection reaping.
  std::size_t ReaderCount(NodeAddr addr) const;

  /// Live outbound connections whose socket is currently established —
  /// observability for the idle-reap logic.
  std::size_t ActiveOutboundConnections() const;

 private:
  class Listener;
  class InConn;
  class OutConn;
  struct Endpoint;
  friend class Listener;
  friend class InConn;
  friend class OutConn;

  std::shared_ptr<OutConn> GetConnection(NodeAddr from, NodeAddr to);
  void AdoptInbound(Endpoint* ep, int fd);
  void RemoveInbound(Endpoint* ep, InConn* conn);
  void NotifyPeerDown(NodeAddr from, NodeAddr to);

  // Adds `delta` to the counters of `peer`: the destination for traffic a
  // connection sends, the sender for traffic an endpoint receives. Every
  // event counts against exactly one peer, so the totals are their sum.
  void Count(NodeAddr peer, const Counters& delta);

  std::uint16_t basePort_;
  FabricOptions options_;
  Reactor reactor_;
  BufferPool pool_;
  std::atomic<std::uint64_t> nextLoop_{0};  // round-robin inbound placement

  mutable std::mutex epMu_;
  std::map<NodeAddr, std::unique_ptr<Endpoint>> endpoints_;

  mutable std::mutex connsMu_;
  std::map<std::uint64_t, std::shared_ptr<OutConn>> conns_;  // (from<<32|to)

  FaultTable faults_;

  // Per-peer traffic: one acquisition per frame on each side; no other
  // lock is taken while it is held.
  mutable std::mutex perPeerMu_;
  std::map<NodeAddr, Counters> perPeer_;

  std::atomic<std::size_t> activeOutbound_{0};
  std::atomic<bool> shuttingDown_{false};
};

}  // namespace scalla::net
