// Loopback TCP transport on epoll event loops: each registered endpoint
// gets a listening socket on basePort+addr; frames are [u32 length][u32
// senderAddr][encoded message]. Listeners, inbound connections and
// outbound connections are all non-blocking readiness handlers owned by
// one sched::ThreadExecutor loop:
//   - an endpoint registered with a ThreadExecutor is hosted on it: its
//     listener, the connections it accepts and the connections it opens
//     all live on that loop, so a frame is read, decoded and handed to
//     OnMessage inline on the thread that owns the node, and the node's
//     sends are drained by that same thread;
//   - an endpoint registered with no executor, or with another Executor
//     (a tracing wrapper, a test's forwarding executor), has its sockets
//     on the fabric's own pool of two loops. Frames are posted to its
//     executor, or handled inline on the pool loop when it has none.
// The thread count is therefore fixed by the endpoints and the pool, not
// by the number of connections.
//
// Each (from, to) pair owns an independent connection object with a
// bounded outbound queue, so traffic to one peer never serializes behind
// traffic to another and a wedged destination backs up only its own
// queue. Send writes a frame through to the pair's connected socket on
// the calling thread when the pair's queue is empty, no delay is injected
// and the caller's loop has no backlog (sched::CallerHasBacklog: queued
// tasks, undispatched ready events, or another whole frame buffered behind
// the one being handled): a lone frame then costs one send() and no loop
// wake-up. Everything else is queued for the owning loop, which drains a
// backlog with one writev (sendmsg) per pass and owns connect, partial
// writes, deadlines, delay pacing and idle reaping. Receives read into a
// reusable buffer that is never zero-filled, and frame buffers are pooled,
// so steady-state traffic allocates nothing per message.
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
// Ownership and threading rules (the loop's own rules are in
// sched/thread_executor.h):
//   - every fd/handler belongs to exactly one loop — a pool loop or the
//     endpoint's own ThreadExecutor. Reads, connect, epoll registration,
//     closing and all other handler state live on that loop's thread;
//   - writes are the one exception: a sender on any thread may write a
//     frame to an outbound connection's socket under that connection's
//     qmu_ while its queue is empty and the loop has marked it writable.
//     The loop clears that mark under qmu_ before it closes or replaces
//     the fd, and it takes every write the sender could not finish
//     (EAGAIN, a partial write, an error);
//   - other threads otherwise talk to a loop only through Post()/RunSync();
//   - timers (connect/write deadlines, idle reaping, injected delays) are
//     the loop's RunAt timers;
//   - lock order: a connection's qmu_ before the fabric's perPeerMu_ and
//     the BufferPool lock; no lock is held across a handler callback;
//   - a hosted endpoint's handlers run on the loop that reads its sockets,
//     so a handler that blocks stops that endpoint's reads and the drain
//     of its queued sends until it returns. Peers sending to it then fill
//     the kernel socket buffers, and a peer whose write makes no progress
//     for FabricOptions::writeTimeout declares the connection broken.
//     Hosting therefore assumes handlers that do not block for long;
//   - unregister every endpoint before destroying its executor (a
//     ThreadExecutor destroyed while it still hosts sockets aborts), or
//     stop every executor and then destroy the fabric, which tears down on
//     the caller once a loop has stopped.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/fault_table.h"
#include "sched/executor.h"
#include "sched/thread_executor.h"
#include "util/types.h"

namespace scalla::net {

/// Free list of reusable byte buffers for frame encode/decode: the send
/// path acquires a buffer, encodes into it, and the loop releases it
/// back once written, so steady-state traffic does not allocate per
/// message. Oversized buffers are dropped rather than hoarded.
class BufferPool {
 public:
  std::string Acquire() {
    std::lock_guard lock(mu_);
    if (free_.empty()) return {};
    std::string out = std::move(free_.back());
    free_.pop_back();
    out.clear();
    return out;
  }

  void Release(std::string&& buffer) {
    constexpr std::size_t kMaxPooled = 64;
    constexpr std::size_t kMaxPooledCapacity = 256 * 1024;
    if (buffer.capacity() > kMaxPooledCapacity) return;
    std::lock_guard lock(mu_);
    if (free_.size() >= kMaxPooled) return;
    free_.push_back(std::move(buffer));
  }

 private:
  std::mutex mu_;
  std::vector<std::string> free_;
};

class TcpFabric final : public Fabric {
 public:
  /// Endpoints listen on 127.0.0.1:basePort+addr.
  explicit TcpFabric(std::uint16_t basePort, FabricOptions options = {});
  ~TcpFabric() override;

  TcpFabric(const TcpFabric&) = delete;
  TcpFabric& operator=(const TcpFabric&) = delete;

  /// Binds an endpoint: registers its listener on `executor` when that is
  /// a sched::ThreadExecutor, else on a pool loop. Returns false if the
  /// port could not be bound.
  bool Register(NodeAddr addr, MessageSink* sink, sched::Executor* executor);
  /// Tears an endpoint down, from any thread; on the endpoint's own
  /// dispatch thread it runs inline. On return no further inline
  /// OnMessage/OnPeerDown for this endpoint is running or will start (the
  /// teardown runs a barrier on every loop that holds its sockets), so the
  /// caller may destroy the sink/executor. The barrier waits for those
  /// loops, so two loops must not unregister each other's endpoints at
  /// the same time.
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
  void CloseEndpoint(Endpoint* ep);
  void AdoptInbound(Endpoint* ep, int fd);
  void RemoveInbound(Endpoint* ep, InConn* conn);
  void NotifyPeerDown(NodeAddr from, NodeAddr to);
  /// The pool loop for `key` (same key, same loop).
  sched::ThreadExecutor& PoolLoop(std::uint64_t key) {
    return *loops_[static_cast<std::size_t>(key % loops_.size())];
  }

  // Adds `delta` to the counters of `peer`: the destination for traffic a
  // connection sends, the sender for traffic an endpoint receives. Every
  // event counts against exactly one peer, so the totals are their sum.
  void Count(NodeAddr peer, const Counters& delta);

  std::uint16_t basePort_;
  FabricOptions options_;
  BufferPool pool_;
  // Loops for the sockets of endpoints without a ThreadExecutor of their
  // own. Declared after pool_, so they are joined before it goes.
  std::vector<std::unique_ptr<sched::ThreadExecutor>> loops_;
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
