// Loopback TCP transport on epoll event loops: each registered endpoint
// gets a listening socket on basePort+addr; frames are [u32 length][u32
// senderAddr][encoded message]. Listeners and connections are all
// non-blocking readiness handlers owned by one sched::ThreadExecutor loop:
//   - an endpoint registered with a ThreadExecutor is hosted on it: its
//     listener and every socket it accepts or dials live on that loop, so
//     a frame is read, decoded and handed to OnMessage inline on the thread
//     that owns the node, and the node's sends are drained by that same
//     thread;
//   - an endpoint registered with no executor, or with another Executor
//     (a tracing wrapper, a test's forwarding executor), has its sockets
//     on the fabric's own pool of two loops. Frames are posted to its
//     executor, or handled inline on the pool loop when it has none.
// The thread count is therefore fixed by the endpoints and the pool, not
// by the number of connections.
//
// One connection per endpoint pair. Every socket, dialed or accepted,
// carries frames both ways: a request and its reply share a socket, so
// data flowing back carries the kernel's ACK instead of a pure ACK segment
// per frame. A (from, to) pair sends over the connection `from` already
// shares with `to`: a socket it dialed, or an accepted socket whose first
// frame named `to`. It dials only when it has neither, and keeps its
// connection until that socket closes, so per-pair order holds. Two ends
// that dial each other at once each keep their own socket for sending; the
// other socket then only carries frames the other way, until one end reaps
// its own socket idle and moves its pair onto the one it accepted. A frame
// naming a sender other than its connection's peer closes the connection,
// as a bad length does, and a frame for an address with no endpoint (a
// socket dialed by an unregistered sender) is counted as dropped.
//
// Each connection has a bounded outbound queue, so traffic to one peer
// never serializes behind traffic to another and a wedged destination
// backs up only its own queue. Send writes a frame through to the pair's
// connected socket on the calling thread when the pair's queue is empty,
// no delay is injected and the caller's loop has no backlog
// (sched::CallerHasBacklog: queued tasks, undispatched ready events, or
// another whole frame buffered behind the one being handled): a lone frame
// then costs one sendmsg and no loop wake-up. Everything else is queued for
// the owning loop, which drains a backlog with one writev (sendmsg) per
// pass and owns connect, partial writes, deadlines, delay pacing and idle
// reaping (by the dialing end). Receives read into a reusable buffer that
// is never zero-filled, and frame buffers are pooled per thread, so a
// hosted endpoint's steady-state traffic allocates nothing per message
// (tests/fabric_alloc_test.cc).
//
// Bulk bytes are not copied on the way out. A message whose last field is
// bulk data (XrdReadResp, XrdWrite) is framed as header plus its other
// fields in the pooled buffer, while its data string is moved out of the
// message and written as the frame's second iovec, by the write-through
// send and by the loop's batched sendmsg alike. The bytes on the wire are
// the same as one buffer would carry, a partial write resumes across both
// buffers, and every other frame is a head alone.
//
// Failure signalling is asynchronous: a failed connect (timer-based
// deadline), an expired write-progress deadline, or a queue overflow
// marks the peer down and fires the sending endpoint's OnPeerDown —
// exactly the signal the cmsd uses to mark a subordinate offline. A
// connection that made progress (>= 1 complete frame sent) before breaking
// is treated as a stale cached connection and transparently re-established
// once by dialing, whichever end made its socket; only a connection that
// never progresses fails the peer, so a restarting peer costs one
// reconnect, not an OnPeerDown storm. An accepted socket whose peer closes
// it with nothing queued just closes: the dialing end owns its lifetime.
//
// Fault injection implements the full net::FaultInjector surface
// (SetDown / SetLinkCut / SetDrop / SetDelay / SetWedged), checked per
// frame in each direction, so chaos scenarios written against Fabric* run
// unchanged over real sockets.
//
// Ownership and threading rules (the loop's own rules are in
// sched/thread_executor.h):
//   - every fd/handler belongs to exactly one loop — a pool loop or the
//     endpoint's own ThreadExecutor. Reads, connect, epoll registration,
//     closing and all other handler state live on that loop's thread;
//   - writes are the one exception: a sender on any thread may write a
//     frame to a connection's socket under that connection's qmu_ while
//     its queue is empty and the loop has marked it writable. The loop
//     clears that mark under qmu_ before it closes or replaces the fd, and
//     it takes every write the sender could not finish (EAGAIN, a partial
//     write, an error);
//   - other threads otherwise talk to a loop only through Post()/RunSync();
//   - timers (connect/write deadlines, idle reaping, injected delays) are
//     the loop's RunAt timers;
//   - no fabric-wide mutex on the frame path: Send, Submit's write-through,
//     DrainWrites and ParseFrames take only the pair's qmu_, the calling
//     thread's own counter shard, and connsMu_ shared to find the pair.
//     connsMu_ is exclusive only while a pair is created, claimed, handed
//     over or removed; frame buffers come from a per-thread list with no
//     lock; FaultTable::Check takes none while no fault is set;
//   - lock order: connsMu_, then epMu_ or a connection's qmu_; shardsMu_
//     before a counter shard's lock, which is otherwise taken with no
//     other lock held; no lock is held across a handler callback;
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
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/fault_table.h"
#include "sched/executor.h"
#include "sched/thread_executor.h"
#include "util/types.h"

namespace scalla::net {

class TcpFabric final : public Fabric {
 public:
  /// Endpoints listen on 127.0.0.1:basePort+addr.
  explicit TcpFabric(std::uint16_t basePort, FabricOptions options = {});
  ~TcpFabric() override;

  TcpFabric(const TcpFabric&) = delete;
  TcpFabric& operator=(const TcpFabric&) = delete;

  /// Binds an endpoint: registers its listener on `executor` when that is
  /// a sched::ThreadExecutor, else on a pool loop. Returns false if the
  /// port could not be bound, or if basePort+addr passes 65535: that address
  /// has no port, and a send to it fails as a refused connect does.
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
  /// Both sum every thread's counter shard. Once traffic is quiet the sum
  /// is exact, counts made by threads that have since exited included;
  /// while frames move, each shard is read at its own moment, so a frame
  /// may read as received before its sender's count of it lands.
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

  /// Live sockets accepted by `addr`'s listener (closed ones are removed
  /// immediately) — observability for connection reaping.
  std::size_t ReaderCount(NodeAddr addr) const;

  /// Live dialed sockets whose connect has completed — observability for
  /// the idle-reap logic and for connection sharing.
  std::size_t ActiveOutboundConnections() const;

 private:
  class Listener;
  class Conn;
  struct Endpoint;
  struct CounterShard;
  struct ThreadShards;
  friend class Listener;
  friend class Conn;

  /// The (from, to) pair's connection, created (socketless, to dial) when
  /// the pair has none; null while the fabric shuts down.
  std::shared_ptr<Conn> GetConnection(NodeAddr from, NodeAddr to);
  /// An accepted socket's first frame named `peer`: it becomes its
  /// endpoint's connection to that peer unless the pair's connection has
  /// a socket or frames queued.
  void Claim(const std::shared_ptr<Conn>& conn, NodeAddr peer);
  /// `conn` was reaped idle: its pair moves to a live accepted socket
  /// from the same peer (left by a crossing dial), if the endpoint has
  /// one, instead of dialing again on its next send.
  void HandOver(const std::shared_ptr<Conn>& conn);
  void CloseEndpoint(Endpoint* ep);
  void AdoptInbound(Endpoint* ep, int fd);
  void RemoveInbound(Endpoint* ep, Conn* conn);
  void NotifyPeerDown(NodeAddr from, NodeAddr to);
  /// The pool loop for `key` (same key, same loop).
  sched::ThreadExecutor& PoolLoop(std::uint64_t key) {
    return *loops_[static_cast<std::size_t>(key % loops_.size())];
  }

  // Adds `delta` to the counters of `peer` in the calling thread's own
  // shard: the destination for traffic an endpoint sends, the sender for
  // traffic it receives. Every event counts against exactly one peer, so
  // the totals are their sum.
  void Count(NodeAddr peer, const Counters& delta);
  // The calling thread's shard of this fabric, found through a
  // thread-local cache keyed by id_; AddShard makes or adopts one.
  CounterShard& ThisThreadShard();
  CounterShard& AddShard(ThreadShards& mine);
  // Sums `peer`'s counters over every shard, or all of them when `peer`
  // is empty.
  Counters SumShards(std::optional<NodeAddr> peer) const;

  const std::uint64_t id_;  // never reused, so a thread's cache never aliases
  std::uint16_t basePort_;
  FabricOptions options_;
  // Loops for the sockets of endpoints without a ThreadExecutor of their
  // own.
  std::vector<std::unique_ptr<sched::ThreadExecutor>> loops_;
  std::atomic<std::uint64_t> nextLoop_{0};  // round-robin accepted placement

  mutable std::mutex epMu_;
  std::map<NodeAddr, std::unique_ptr<Endpoint>> endpoints_;

  // Shared to find a pair on every send; exclusive to change the map.
  mutable std::shared_mutex connsMu_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;  // (from<<32|to)

  FaultTable faults_;

  // Per-peer traffic, one shard per thread that has counted on this
  // fabric. A thread that exits leaves its shard, counts and all, for the
  // next new thread to adopt, so the list stays as long as the most
  // threads that counted at once and no count is lost.
  mutable std::mutex shardsMu_;
  std::vector<std::shared_ptr<CounterShard>> shards_;

  std::atomic<std::size_t> activeOutbound_{0};
  std::atomic<bool> shuttingDown_{false};
};

}  // namespace scalla::net
