#include "net/tcp_fabric.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "proto/wire.h"
#include "sched/thread_executor.h"
#include "util/logger.h"

namespace scalla::net {
namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 length + u32 senderAddr

// The pool for endpoints without a ThreadExecutor of their own.
constexpr int kPoolLoops = 2;

// Frames batched into one sendmsg; a full batch just means another pass.
constexpr std::size_t kMaxWritevBatch = 64;

// One frame on its way out: the header and every encoded field in `head`, a
// pooled buffer, and the message's bulk data field, when it has one, in
// `payload`, moved out of the message (proto::EncodeAppendSplit). The wire
// carries head then payload; the payload is never copied into the head.
struct Frame {
  std::string head;
  std::string payload;

  std::size_t size() const { return head.size() + payload.size(); }
};

// Points `iov` at the bytes of `frame` from offset `sent` on, across both
// buffers; returns how many entries (1 or 2) it filled.
std::size_t FrameIov(const Frame& frame, std::size_t sent, iovec* iov) {
  std::size_t n = 0;
  if (sent < frame.head.size()) {
    iov[n++] = {const_cast<char*>(frame.head.data()) + sent, frame.head.size() - sent};
    sent = 0;
  } else {
    sent -= frame.head.size();
  }
  if (sent < frame.payload.size()) {
    iov[n++] = {const_cast<char*>(frame.payload.data()) + sent,
                frame.payload.size() - sent};
  }
  return n;
}

// Receive sizing: every recv offers at least 64 KiB of room, the loop
// goes back to other connections after ~1 MiB (level-triggered epoll
// re-reports leftovers), and an outsized rx buffer goes back to the
// allocator once drained.
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kMaxReadPerDispatch = 1024 * 1024;
constexpr std::size_t kRxShrinkCapacity = 1024 * 1024;

TimePoint Now() { return util::SystemClock::Instance().Now(); }

std::uint64_t PairKey(NodeAddr from, NodeAddr to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

// Where `addr` listens: 127.0.0.1, port basePort + addr; nothing when that
// passes the last port, since a wrapped port would be another endpoint's.
std::optional<sockaddr_in> ListenAddr(std::uint16_t basePort, NodeAddr addr) {
  const std::uint64_t port = std::uint64_t{basePort} + addr;
  if (port > 65535) return std::nullopt;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  return sa;
}

// Options every socket the fabric sends on gets, dialed or accepted.
void TuneSocket(int fd, const FabricOptions& options) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options.sendBufferBytes > 0) {
    const int size = static_cast<int>(options.sendBufferBytes);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  }
}

// Free lists of reusable byte buffers for frame heads, one per thread and
// taken without a lock. The send path acquires a buffer on the sending
// thread and encodes into it; whichever thread finishes with the frame (the
// sender that wrote it through, or the loop that drained or dropped it)
// releases it onto its own list. A hosted node sends and drains on one
// thread, so its steady-state traffic allocates nothing per message. Each
// list keeps at most kMaxPooled buffers, and one that grew past
// kMaxPooledCapacity is dropped rather than hoarded.
class BufferPool {
 public:
  static std::string Acquire() {
    if (free_.empty()) return {};
    std::string out = std::move(free_.back());
    free_.pop_back();
    out.clear();
    return out;
  }

  static void Release(std::string&& buffer) {
    if (buffer.capacity() > kMaxPooledCapacity || free_.size() >= kMaxPooled) return;
    free_.push_back(std::move(buffer));
  }

 private:
  static constexpr std::size_t kMaxPooled = 64;
  static constexpr std::size_t kMaxPooledCapacity = 256 * 1024;
  static thread_local std::vector<std::string> free_;
};

thread_local std::vector<std::string> BufferPool::free_;

// Fabric ids are never reused, so a thread's cached shard of a destroyed
// fabric can never be taken for a later fabric's.
std::atomic<std::uint64_t> g_nextFabricId{1};

void Accumulate(Fabric::Counters& into, const Fabric::Counters& d) {
  into.messagesSent += d.messagesSent;
  into.messagesDelivered += d.messagesDelivered;
  into.messagesDropped += d.messagesDropped;
  into.framesSent += d.framesSent;
  into.framesReceived += d.framesReceived;
  into.bytesSent += d.bytesSent;
  into.bytesReceived += d.bytesReceived;
  into.reconnects += d.reconnects;
  into.idleReaps += d.idleReaps;
  into.queueOverflows += d.queueOverflows;
}

}  // namespace

// One thread's counters on one fabric, per peer. Its lock is taken by that
// thread and by readers summing the shards, never by another counter.
struct TcpFabric::CounterShard {
  std::mutex mu;
  std::unordered_map<NodeAddr, Counters> peers;
  std::atomic<bool> owned{false};  // a live thread counts into it
};

// The calling thread's shard of each fabric it has counted on. When the
// thread exits its shards become unowned, for the next thread to adopt.
struct TcpFabric::ThreadShards {
  struct Ref {
    std::uint64_t fabricId;
    std::shared_ptr<CounterShard> shard;
  };
  std::vector<Ref> refs;

  ~ThreadShards() {
    for (const Ref& ref : refs) ref.shard->owned.store(false, std::memory_order_release);
  }
};

struct TcpFabric::Endpoint {
  NodeAddr addr = 0;
  MessageSink* sink = nullptr;
  sched::Executor* executor = nullptr;
  // `executor` when it is a ThreadExecutor: the endpoint's listener and
  // every socket it accepts or dials live on that loop, and frames reach
  // the sink inline. Null: they go on the fabric's loop pool.
  sched::ThreadExecutor* host = nullptr;

  int listenFd = -1;
  std::uint64_t listenerId = 0;
  sched::ThreadExecutor* listenerLoop = nullptr;
  std::shared_ptr<Listener> listener;

  // Live accepted sockets; a Conn leaves the list the moment its accepted
  // socket closes, so the list never accumulates dead entries.
  mutable std::mutex inMu;
  std::vector<std::shared_ptr<Conn>> inConns;
};

// ---------------------------------------------------------------------------
// Listener: accepts on a non-blocking listen socket and hands each
// accepted connection to AdoptInbound, which picks its loop.

class TcpFabric::Listener final : public sched::EventHandler {
 public:
  Listener(TcpFabric* fabric, Endpoint* ep) : fabric_(fabric), ep_(ep) {}

  void OnEvents(std::uint32_t /*events*/) override {
    for (;;) {
      const int fd =
          ::accept4(ep_->listenFd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN, or the listener is being torn down
      }
      TuneSocket(fd, fabric_->options_);
      fabric_->AdoptInbound(ep_, fd);
    }
  }

 private:
  TcpFabric* fabric_;
  Endpoint* ep_;
};

// ---------------------------------------------------------------------------
// Conn: one socket, dialed or accepted, carrying frames both ways, and the
// send path of the (local, peer) pair that uses it.
//
// Receive: reads are readiness-driven into a reusable, never zero-filled
// rx buffer; frames are parsed incrementally (a frame may arrive across any
// number of reads) and delivered to the local endpoint's sink: inline when
// this loop is the endpoint's own (or it has no executor), else posted to
// its executor. A dialed Conn knows its peer; an accepted one learns it
// from its first frame and offers itself as the endpoint's path to that
// peer (TcpFabric::Claim). A frame naming any other sender closes it.
//
// Send: any thread submits frames under qmu_. It writes one through to the
// connected socket itself when the pair is idle, and otherwise queues it and
// "kicks" the owning loop at most once per quiet period. Connect, draining a
// backlog with writev, deadlines, delay pacing and idle reaping stay on the
// loop. A hosted endpoint's sockets live on its own loop, so its kick is a
// post to itself that drains each pair once the current round is done.

class TcpFabric::Conn final : public sched::EventHandler,
                              public std::enable_shared_from_this<Conn> {
 public:
  // Submit's answer once this Conn has handed its pair to another socket:
  // the sender looks the pair up again.
  static constexpr ssize_t kRetired = -2;

  // A pair's send path with no socket yet: its first frame dials `peer`.
  // `ep` is the local endpoint frames arriving on it go to (null: none).
  Conn(TcpFabric* fabric, Endpoint* ep, NodeAddr local, NodeAddr peer,
       sched::ThreadExecutor* loop)
      : fabric_(fabric), ep_(ep), local_(local), loop_(loop), peer_(peer),
        peerKnown_(true) {}

  // A socket `ep`'s listener accepted; Attach registers it.
  Conn(TcpFabric* fabric, Endpoint* ep, int fd, sched::ThreadExecutor* loop)
      : fabric_(fabric), ep_(ep), local_(ep->addr), loop_(loop), fd_(fd),
        accepted_(true) {}

  sched::ThreadExecutor* loop() const { return loop_; }
  Endpoint* endpoint() const { return ep_; }
  NodeAddr local() const { return local_; }
  NodeAddr peer() const { return peer_; }  // loop thread, once known
  // An accepted Conn's peer, set and read under the fabric's connsMu_.
  void LearnPeer(NodeAddr peer) {
    peer_ = peer;
    peerKnown_ = true;
  }
  bool KnowsPeer(NodeAddr peer) const { return peerKnown_ && peer_ == peer; }

  // Loop thread: registers an accepted socket. A StopOnLoop that ran first
  // (the endpoint unregistering after a stopped loop) already closed it.
  void Attach() {
    if (stopped_) return;
    id_ = loop_->Add(fd_, EPOLLIN, shared_from_this());
    state_ = State::kConnected;
    std::lock_guard lock(qmu_);
    hasSocket_ = true;
    writable_ = true;
  }

  // Any thread. Hands one encoded frame to the pair, in order behind
  // anything already queued. With `writeThrough` set, an idle connected
  // pair has the calling thread send the frame itself, head and payload in
  // one sendmsg; whatever the socket does not take (EAGAIN, the tail of a
  // partial write, or the whole frame on an error, which resurfaces on the
  // loop's next write) is queued with its offset for the loop. Returns the
  // bytes this call wrote, -1 when the bounded queue is full and the frame
  // was refused, or kRetired (the frame is left with the caller).
  ssize_t Submit(Frame& frame, bool writeThrough) {
    ssize_t written = 0;
    bool queued = false;
    bool kick = false;
    {
      std::lock_guard lock(qmu_);
      if (retired_) return kRetired;
      if (writeThrough && writable_ && queue_.empty()) {
        iovec iov[2];
        msghdr mh{};
        mh.msg_iov = iov;
        mh.msg_iovlen = FrameIov(frame, 0, iov);
        const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
        if (n > 0) {
          written = n;
          lastActivity_ = Now();
        }
      }
      const auto sent = static_cast<std::size_t>(written);
      if (sent == frame.size()) {
        frameDoneSinceConnect_ = true;
      } else if (queue_.size() >= fabric_->options_.maxQueuedMessages) {
        written = -1;
      } else {
        if (sent > 0) frontOffset_ = sent;  // the loop resumes a partial write
        queue_.push_back(std::move(frame));
        queued = true;
        kick = !kicked_;
        kicked_ = true;
      }
    }
    if (kick) {
      loop_->Post([self = shared_from_this()] { self->OnKick(); });
    }
    if (!queued) BufferPool::Release(std::move(frame.head));
    return written;
  }

  // Any thread, under the fabric's connsMu_: gives the pair up when this
  // Conn has no socket and nothing queued. A later Submit sends its caller
  // back to look the pair up again, so no frame can pass one queued here.
  bool RetireIfIdle() {
    std::lock_guard lock(qmu_);
    if (hasSocket_ || !queue_.empty()) return false;
    retired_ = true;
    return true;
  }

  // Any thread: the peer's endpoint went away locally (Unregister). Treat
  // the socket like a peer restart: quietly drop it; the next frame
  // reconnects (counting one reconnect) and only a refused reconnect
  // escalates to OnPeerDown. Senders stop writing through at once, and a
  // drain already running on the loop stops at its next batch, so a frame
  // sent after Unregister queues behind the detach.
  void PostDetachStale() {
    {
      std::lock_guard lock(qmu_);
      writable_ = false;
    }
    loop_->Post([self = shared_from_this()] { self->DetachStale(); });
  }

  // Loop thread (via RunSync): terminal teardown, no signalling.
  void StopOnLoop() {
    if (stopped_) return;
    stopped_ = true;
    CloseFd();
    std::lock_guard lock(qmu_);
    DropQueueLocked();
  }

  void OnEvents(std::uint32_t events) override {
    if (stopped_) return;
    if (state_ == State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        err = errno != 0 ? errno : EIO;
      }
      if (err == 0 && (events & (EPOLLERR | EPOLLHUP)) != 0) err = ECONNREFUSED;
      if (err != 0) {
        CloseFd();
        FailAll();
        return;
      }
      ++connectGen_;  // cancels the pending connect deadline
      Established();
      return;
    }
    if (state_ != State::kConnected) return;
    if ((events & EPOLLIN) != 0 && !ReadFrames()) return;
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      HandleBroken();
      return;
    }
    if ((events & EPOLLOUT) != 0) DrainWrites();
  }

 private:
  enum class State { kIdle, kConnecting, kConnected };

  // ---- receive ----

  // Reads what the socket holds and delivers every complete frame. Returns
  // false once the socket is gone: EOF, an error, a frame that can never
  // become valid, or an inline handler that unregistered the endpoint.
  bool ReadFrames() {
    std::size_t readThisPass = 0;
    for (;;) {
      MakeRoom();
      const std::size_t room = cap_ - len_;
      const ssize_t n = ::recv(fd_, rx_.get() + len_, room, 0);
      if (n == 0) {  // EOF
        HandleBroken();
        return false;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        HandleBroken();
        return false;
      }
      len_ += static_cast<std::size_t>(n);
      readThisPass += static_cast<std::size_t>(n);
      if (!ParseFrames()) return false;
      // A short read emptied the socket: stop rather than pay a recv that
      // only returns EAGAIN. Level-triggered epoll re-reports later bytes.
      if (static_cast<std::size_t>(n) < room || readThisPass >= kMaxReadPerDispatch) {
        break;
      }
    }
    if (fabric_->options_.idleTimeout > std::chrono::milliseconds::zero()) {
      lastRx_ = Now();
    }
    if (pos_ == len_) {
      pos_ = len_ = 0;
      if (cap_ > kRxShrinkCapacity) {  // give an outsized buffer back
        rx_.reset();
        cap_ = 0;
      }
    }
    return true;
  }

  // Leaves at least kReadChunk free bytes after len_: moves the unparsed
  // tail to the front when that frees enough, else grows the buffer. New
  // capacity is left uninitialised; recv fills what is read.
  void MakeRoom() {
    if (cap_ - len_ >= kReadChunk) return;
    const std::size_t live = len_ - pos_;
    if (cap_ - live < kReadChunk) {
      const std::size_t cap = std::max(2 * cap_, live + kReadChunk);
      std::unique_ptr<char[]> grown(new char[cap]);
      if (live > 0) std::memcpy(grown.get(), rx_.get() + pos_, live);
      rx_ = std::move(grown);
      cap_ = cap;
    } else if (live > 0) {
      std::memmove(rx_.get(), rx_.get() + pos_, live);
    }
    pos_ = 0;
    len_ = live;
  }

  // Delivers every complete frame currently buffered. Returns false once
  // the socket is closed: by a frame that can never become valid (bad
  // length, undecodable body, a sender other than the peer), or by an
  // inline handler that unregistered the endpoint — ep_ may then be gone,
  // so nothing here touches it again.
  bool ParseFrames() {
    for (;;) {
      const std::size_t avail = len_ - pos_;
      if (avail < kFrameHeader) return true;
      std::uint32_t length = 0;
      std::uint32_t sender = 0;
      std::memcpy(&length, rx_.get() + pos_, 4);
      std::memcpy(&sender, rx_.get() + pos_ + 4, 4);
      if (length == 0 || length > proto::kMaxFrameBody) {
        SCALLA_WARN("tcp", "endpoint %u: bad frame length %u from %u", local_, length,
                    sender);
        HandleBroken();
        return false;
      }
      if (avail < kFrameHeader + length) return true;
      const std::string_view body(rx_.get() + pos_ + kFrameHeader, length);
      auto message = proto::Decode(body);
      if (!message.has_value()) {
        SCALLA_WARN("tcp", "endpoint %u: malformed frame from %u", local_, sender);
        HandleBroken();
        return false;
      }
      if (!peerKnown_) {
        fabric_->Claim(shared_from_this(), sender);
      } else if (sender != peer_) {
        // The first sender decides where this endpoint's replies to it
        // go, so a connection speaks for one peer only.
        SCALLA_WARN("tcp", "endpoint %u: frame from %u on %u's connection", local_,
                    sender, peer_);
        HandleBroken();
        return false;
      }
      pos_ += kFrameHeader + length;
      // A fault injected while the frame was on the wire (a downed or
      // wedged end, a cut or lossy link) loses it silently — the
      // connection stays up. So does a frame for an address with no
      // endpoint (a dialed socket whose sender never registered).
      const bool deliver =
          ep_ != nullptr &&
          fabric_->faults_.Check(sender, local_).fate == FaultVerdict::Fate::kDeliver;
      fabric_->Count(sender, {.messagesDelivered = deliver,
                              .messagesDropped = !deliver,
                              .framesReceived = 1,
                              .bytesReceived = kFrameHeader + length});
      if (!deliver) continue;
      MessageSink* sink = ep_->sink;
      if (ep_->executor != nullptr && ep_->host == nullptr) {
        ep_->executor->Post([sink, sender, msg = std::move(*message)]() mutable {
          sink->OnMessage(sender, std::move(msg));
        });
        continue;
      }
      // Inline on the endpoint's own loop. A sender in the handler sees a
      // backlog while another whole frame waits here, so its replies batch.
      sched::NoteBufferedInput(CompleteFrameBuffered());
      sink->OnMessage(sender, std::move(*message));
      if (stopped_ || state_ != State::kConnected) return false;
    }
  }

  bool CompleteFrameBuffered() const {
    const std::size_t avail = len_ - pos_;
    if (avail < kFrameHeader) return false;
    std::uint32_t length = 0;
    std::memcpy(&length, rx_.get() + pos_, 4);
    return avail >= kFrameHeader + length;
  }

  // ---- send ----

  void OnKick() {
    {
      std::lock_guard lock(qmu_);
      kicked_ = false;
    }
    Pump();
  }

  void Pump() {
    if (stopped_) return;
    switch (state_) {
      case State::kIdle:
        MaybeConnect();
        break;
      case State::kConnecting:
        break;  // the pending frames drain once the connect resolves
      case State::kConnected:
        DrainWrites();
        break;
    }
  }

  void MaybeConnect() {
    {
      std::lock_guard lock(qmu_);
      if (queue_.empty()) return;
    }
    if (staleClosed_) {
      // Replacing a connection that had worked: that is a reconnect, and
      // it is transparent unless the new connect fails.
      staleClosed_ = false;
      fabric_->Count(peer_, {.reconnects = 1});
    }
    StartConnect();
  }

  void StartConnect() {
    // A peer past the last port has no port to dial: it fails as a refused
    // connect does.
    const std::optional<sockaddr_in> sa = ListenAddr(fabric_->basePort_, peer_);
    const int fd = sa ? ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) : -1;
    if (fd < 0) {
      FailAll();
      return;
    }
    TuneSocket(fd, fabric_->options_);
    // Without SO_REUSEADDR here, this socket's TIME_WAIT remnant blocks any
    // later listener bind that lands on the same (ephemeral) local port.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    fd_ = fd;
    {
      std::lock_guard lock(qmu_);
      hasSocket_ = true;
    }
    const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&*sa), sizeof(*sa));
    if (rc == 0) {
      id_ = loop_->Add(fd_, EPOLLIN, shared_from_this());
      Established();
      return;
    }
    if (errno != EINPROGRESS) {
      CloseFd();
      FailAll();
      return;
    }
    state_ = State::kConnecting;
    id_ = loop_->Add(fd_, EPOLLOUT, shared_from_this());
    const std::uint64_t gen = ++connectGen_;
    loop_->RunAt(
        Now() + fabric_->options_.connectTimeout,
        [self = shared_from_this(), gen] { self->OnConnectDeadline(gen); });
  }

  void OnConnectDeadline(std::uint64_t gen) {
    if (stopped_ || gen != connectGen_ || state_ != State::kConnecting) return;
    CloseFd();
    FailAll();
  }

  void Established() {
    state_ = State::kConnected;
    fabric_->activeOutbound_.fetch_add(1, std::memory_order_relaxed);
    wantWrite_ = false;
    deadlineArmed_ = false;
    loop_->Mod(id_, EPOLLIN);
    const TimePoint now = Now();
    {
      std::lock_guard lock(qmu_);
      frameDoneSinceConnect_ = false;
      lastActivity_ = now;
      writable_ = true;
    }
    // The dialing end reaps a quiet socket; the accepting end sees EOF.
    if (fabric_->options_.idleTimeout > std::chrono::milliseconds::zero()) {
      lastRx_ = now;
      const std::uint64_t gen = ++idleGen_;
      loop_->RunAt(now + fabric_->options_.idleTimeout,
                   [self = shared_from_this(), gen] { self->OnIdleCheck(gen); });
    }
    DrainWrites();
  }

  void DrainWrites() {
    for (;;) {
      if (stopped_ || state_ != State::kConnected) return;
      // Faults injected after enqueue: those frames are lost in flight,
      // silently (Send-time signalling already happened). If half a frame
      // already hit the wire, drop the socket too so the peer's framing
      // never desynchronizes; the next send transparently reconnects.
      const FaultVerdict verdict = fabric_->faults_.Check(local_, peer_);
      if (verdict.fate != FaultVerdict::Fate::kDeliver) {
        std::size_t n = 0;
        bool midFrame = false;
        {
          std::lock_guard lock(qmu_);
          midFrame = frontOffset_ > 0;
          if (midFrame) writable_ = false;  // no write-through onto a torn frame
          n = DropQueueLocked();
        }
        if (n > 0) fabric_->Count(peer_, {.messagesDropped = n});
        if (midFrame) {
          CloseFd();
          staleClosed_ = true;
        } else {
          SetWantWrite(false);
        }
        return;
      }
      const Duration delay = verdict.delay;
      const TimePoint now = Now();
      if (delay > Duration::zero()) {
        // Per-pair pacing: each frame waits out the injected delay before
        // leaving, exactly one frame per period, stalling only this pair.
        if (!pacingActive_) {
          pacingActive_ = true;
          nextEligible_ = now + delay;
        }
        if (now < nextEligible_) {
          bool pending;
          {
            std::lock_guard lock(qmu_);
            pending = !queue_.empty();
          }
          if (pending) ScheduleDelayPump(nextEligible_);
          return;
        }
      } else {
        pacingActive_ = false;
      }
      // Build a writev batch from the queue front, up to two iovecs per
      // frame. The references stay valid while unlocked: only this thread
      // pops, and deque push_back does not invalidate references to
      // existing elements. Senders do not write through while the queue is
      // non-empty. A connected Conn that is not writable has a detach
      // pending: its frames wait for the reconnect the detach makes rather
      // than go out on a socket whose reader is gone.
      iovec iov[2 * kMaxWritevBatch];
      std::size_t nIov = 0;
      {
        std::lock_guard lock(qmu_);
        const std::size_t limit =
            !writable_ ? 0
                       : std::min(queue_.size(),
                                  delay > Duration::zero() ? 1 : kMaxWritevBatch);
        for (std::size_t i = 0; i < limit; ++i) {
          nIov += FrameIov(queue_[i], i == 0 ? frontOffset_ : 0, iov + nIov);
        }
      }
      if (nIov == 0) {
        SetWantWrite(false);
        return;
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = nIov;
      const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          SetWantWrite(true);
          ArmWriteDeadline();
          return;
        }
        if (errno == EINTR) continue;
        HandleBroken();
        return;
      }
      // Progress: consume fully-written frames, keep a partial offset.
      deadlineArmed_ = false;
      std::size_t consumed = static_cast<std::size_t>(n);
      std::uint64_t completed = 0;
      {
        std::lock_guard lock(qmu_);
        lastActivity_ = now;
        while (consumed > 0 && !queue_.empty()) {
          Frame& f = queue_.front();
          const std::size_t remain = f.size() - frontOffset_;
          if (consumed >= remain) {
            consumed -= remain;
            frontOffset_ = 0;
            BufferPool::Release(std::move(f.head));
            queue_.pop_front();
            ++completed;
          } else {
            frontOffset_ += consumed;
            consumed = 0;
          }
        }
        if (completed > 0) frameDoneSinceConnect_ = true;
      }
      fabric_->Count(peer_, {.framesSent = completed,
                             .bytesSent = static_cast<std::uint64_t>(n)});
      if (completed > 0 && delay > Duration::zero()) nextEligible_ = now + delay;
    }
  }

  void ScheduleDelayPump(TimePoint when) {
    if (delayPumpArmed_) return;
    delayPumpArmed_ = true;
    loop_->RunAt(when, [self = shared_from_this()] {
      self->delayPumpArmed_ = false;
      self->Pump();
    });
  }

  void ArmWriteDeadline() {
    if (deadlineArmed_) return;
    deadlineArmed_ = true;
    const std::uint64_t gen = ++deadlineGen_;
    loop_->RunAt(
        Now() + fabric_->options_.writeTimeout,
        [self = shared_from_this(), gen] { self->OnWriteDeadline(gen); });
  }

  void OnWriteDeadline(std::uint64_t gen) {
    if (stopped_ || gen != deadlineGen_ || !deadlineArmed_ ||
        state_ != State::kConnected) {
      return;
    }
    // No byte accepted for a whole writeTimeout: the peer stopped draining.
    deadlineArmed_ = false;
    HandleBroken();
  }

  void OnIdleCheck(std::uint64_t gen) {
    if (stopped_ || gen != idleGen_ || state_ != State::kConnected) return;
    const TimePoint now = Now();
    TimePoint next;
    bool idle = false;
    {
      std::lock_guard lock(qmu_);
      next = std::max(lastActivity_, lastRx_) + fabric_->options_.idleTimeout;
      // Decide and stop write-through in one step, so no sender writes
      // between the idle verdict and the close.
      idle = queue_.empty() && next <= now;
      if (idle) writable_ = false;
    }
    if (idle) {
      // Quietly close: no OnPeerDown, no reconnect accounting — the next
      // send re-establishes transparently.
      CloseFd();
      staleClosed_ = false;
      fabric_->Count(peer_, {.idleReaps = 1});
      fabric_->HandOver(shared_from_this());
      return;
    }
    if (next <= now) next = now + fabric_->options_.idleTimeout;
    loop_->RunAt(next, [self = shared_from_this(), gen] { self->OnIdleCheck(gen); });
  }

  // The socket broke: EOF, a reset, a write error, a stalled write, or a
  // frame that can never become valid. An accepted socket with nothing
  // queued just closes: the peer that dialed it decides when it ends (an
  // idle reap, a shutdown). Otherwise, if it completed at least one frame
  // since it connected it was a working, cached connection that went stale
  // (peer restart): replace it transparently. If it never worked, fail the
  // backlog and tell the local endpoint its peer is down.
  void HandleBroken() {
    bool progressed;
    bool queued;
    {
      std::lock_guard lock(qmu_);
      progressed = frameDoneSinceConnect_;
      queued = !queue_.empty();
    }
    const bool accepted = accepted_;
    CloseFd();
    deadlineArmed_ = false;
    if (accepted && !queued) return;
    if (progressed) {
      staleClosed_ = true;
      MaybeConnect();
    } else {
      FailAll();
    }
  }

  // Drop the whole backlog (delivery is per-pair FIFO, so later frames
  // cannot jump a failed one) and signal the local endpoint.
  void FailAll() {
    staleClosed_ = false;
    std::size_t n = 0;
    {
      std::lock_guard lock(qmu_);
      n = DropQueueLocked();
    }
    if (n > 0) fabric_->Count(peer_, {.messagesDropped = n});
    fabric_->NotifyPeerDown(local_, peer_);
  }

  // Returns the queued frames' heads to the pool; returns how many there
  // were.
  std::size_t DropQueueLocked() {
    const std::size_t n = queue_.size();
    for (auto& f : queue_) BufferPool::Release(std::move(f.head));
    queue_.clear();
    return n;
  }

  void DetachStale() {
    if (stopped_) return;
    if (state_ != State::kIdle) CloseFd();
    staleClosed_ = true;
    Pump();  // queued frames head for the (possibly restarted) listener
  }

  // Stops write-through before the fd goes, so no sender can write to a
  // closed (or reused) descriptor, and forgets any partial frame: the
  // next connection resends it whole. Whatever was half-received is lost
  // with the socket.
  void CloseFd() {
    {
      std::lock_guard lock(qmu_);
      writable_ = false;
      hasSocket_ = false;
      frontOffset_ = 0;
    }
    if (state_ == State::kConnected && !accepted_) {
      fabric_->activeOutbound_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (id_ != 0) {
      loop_->Del(id_);
      id_ = 0;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (accepted_) {
      accepted_ = false;  // a reconnect dials
      fabric_->RemoveInbound(ep_, this);
    }
    state_ = State::kIdle;
    wantWrite_ = false;
    rx_.reset();
    cap_ = len_ = pos_ = 0;
  }

  void SetWantWrite(bool want) {
    if (want == wantWrite_ || id_ == 0) return;
    wantWrite_ = want;
    std::uint32_t events = EPOLLIN;
    if (want) events |= EPOLLOUT;
    loop_->Mod(id_, events);
  }

  TcpFabric* fabric_;
  Endpoint* const ep_;
  const NodeAddr local_;
  sched::ThreadExecutor* const loop_;

  // Shared by the loop and every sending thread, under qmu_.
  std::mutex qmu_;
  std::deque<Frame> queue_;        // encoded frames (header + body)
  std::size_t frontOffset_ = 0;    // bytes of queue_.front() already sent
  bool kicked_ = false;            // a look at the queue is already scheduled
  bool writable_ = false;          // fd_ is connected: senders may write through
  bool hasSocket_ = false;         // connecting or connected
  bool retired_ = false;           // another Conn carries the pair now
  bool frameDoneSinceConnect_ = false;
  TimePoint lastActivity_{};       // last frame this side sent

  // An accepted Conn's are set by Claim under the fabric's connsMu_, on
  // the loop, so HandOver may read them under that lock.
  NodeAddr peer_ = 0;
  bool peerKnown_ = false;

  // Loop-thread-only (fd_ is written only while writable_ is false).
  State state_ = State::kIdle;
  int fd_ = -1;
  bool accepted_ = false;             // fd_ came from the listener
  std::uint64_t id_ = 0;
  bool stopped_ = false;
  bool wantWrite_ = false;
  bool staleClosed_ = false;          // last socket was a working one
  bool deadlineArmed_ = false;
  std::uint64_t deadlineGen_ = 0;
  std::uint64_t connectGen_ = 0;
  std::uint64_t idleGen_ = 0;
  TimePoint lastRx_{};                // last read, kept while reaping is on
  bool pacingActive_ = false;
  bool delayPumpArmed_ = false;
  TimePoint nextEligible_{};
  std::unique_ptr<char[]> rx_;  // unparsed bytes live in [pos_, len_)
  std::size_t cap_ = 0;
  std::size_t len_ = 0;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// TcpFabric proper.

TcpFabric::TcpFabric(std::uint16_t basePort, FabricOptions options)
    : id_(g_nextFabricId.fetch_add(1, std::memory_order_relaxed)),
      basePort_(basePort),
      options_(options) {
  RequireValidFabricOptions(options_);
  for (int i = 0; i < kPoolLoops; ++i) {
    loops_.push_back(std::make_unique<sched::ThreadExecutor>());
  }
}

TcpFabric::~TcpFabric() {
  shuttingDown_ = true;
  // Stop every pair's connection first so none can fire OnPeerDown into an
  // endpoint that is being torn down. A loop that has stopped runs its
  // RunSync inline, so executors stopped before the fabric are fine.
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns;
  {
    std::lock_guard lock(connsMu_);
    conns.swap(conns_);
  }
  for (auto& [_, conn] : conns) {
    Conn* raw = conn.get();
    raw->loop()->RunSync([raw] { raw->StopOnLoop(); });
  }

  std::vector<std::unique_ptr<Endpoint>> eps;
  {
    std::lock_guard lock(epMu_);
    for (auto& [_, ep] : endpoints_) eps.push_back(std::move(ep));
    endpoints_.clear();
  }
  for (auto& ep : eps) CloseEndpoint(ep.get());
  for (auto& loop : loops_) loop->Stop();
}

bool TcpFabric::Register(NodeAddr addr, MessageSink* sink,
                         sched::Executor* executor) {
  const std::optional<sockaddr_in> sa = ListenAddr(basePort_, addr);
  if (!sa) return false;
  auto ep = std::make_unique<Endpoint>();
  ep->addr = addr;
  ep->sink = sink;
  ep->executor = executor;
  ep->host = dynamic_cast<sched::ThreadExecutor*>(executor);

  ep->listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ep->listenFd < 0) return false;
  const int one = 1;
  ::setsockopt(ep->listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(ep->listenFd, reinterpret_cast<const sockaddr*>(&*sa), sizeof(*sa)) != 0 ||
      ::listen(ep->listenFd, 128) != 0) {
    ::close(ep->listenFd);
    return false;
  }
  ep->listener = std::make_shared<Listener>(this, ep.get());
  ep->listenerLoop = ep->host != nullptr ? ep->host : &PoolLoop(addr);
  Endpoint* raw = ep.get();
  {
    std::lock_guard lock(epMu_);
    endpoints_[addr] = std::move(ep);
  }
  raw->listenerLoop->RunSync([raw] {
    raw->listenerId = raw->listenerLoop->Add(raw->listenFd, EPOLLIN, raw->listener);
  });
  return true;
}

void TcpFabric::Unregister(NodeAddr addr) {
  // 1. Take the endpoint out of the map: from here on no connection of it
  //    is placed on its loop or claims a pair, and no OnPeerDown reaches it.
  std::unique_ptr<Endpoint> ep;
  {
    std::lock_guard lock(epMu_);
    const auto it = endpoints_.find(addr);
    if (it != endpoints_.end()) {
      ep = std::move(it->second);
      endpoints_.erase(it);
    }
  }
  // 2. Collect this endpoint's own pairs, and everyone else's pairs TO it.
  std::vector<std::shared_ptr<Conn>> mine;
  std::vector<std::shared_ptr<Conn>> toward;
  {
    std::lock_guard lock(connsMu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((it->first >> 32) == addr) {
        mine.push_back(it->second);
        it = conns_.erase(it);
      } else {
        if ((it->first & 0xFFFFFFFFu) == addr) toward.push_back(it->second);
        ++it;
      }
    }
  }
  // 3. Quietly stale-close everyone else's connection to it, before its own
  //    sockets close, so no sender writes through onto a dying socket:
  //    their next frame reconnects (and fails fast against the dead
  //    listener, firing OnPeerDown).
  for (auto& conn : toward) conn->PostDetachStale();
  // 4. Its own pairs, then the listener and the sockets it accepted.
  for (auto& conn : mine) {
    Conn* raw = conn.get();
    raw->loop()->RunSync([raw] { raw->StopOnLoop(); });
  }
  if (ep != nullptr) CloseEndpoint(ep.get());
}

void TcpFabric::CloseEndpoint(Endpoint* ep) {
  // The listener first: no further accepts, so the accepted snapshot below
  // is complete (Attach posts precede our close posts in each loop's FIFO).
  ep->listenerLoop->RunSync([ep] {
    if (ep->listenerId != 0) ep->listenerLoop->Del(ep->listenerId);
    ::close(ep->listenFd);
    ep->listenerId = 0;
  });
  // Then every accepted socket, on its owning loop. Loops run tasks and
  // dispatches serially, so once each loop's RunSync returns, no inline
  // delivery into the endpoint's sink is running or can start — the
  // guarantee Unregister's callers rely on. A hosted endpoint reads only
  // on its own loop; a pooled one's sockets may sit on any pool loop.
  std::vector<std::shared_ptr<Conn>> ins;
  {
    std::lock_guard lock(ep->inMu);
    ins = ep->inConns;
  }
  const auto closeOn = [&ins](sched::ThreadExecutor& loop) {
    loop.RunSync([&loop, &ins] {
      for (auto& c : ins) {
        if (c->loop() == &loop) c->StopOnLoop();
      }
    });
  };
  if (ep->host != nullptr) {
    closeOn(*ep->host);
  } else {
    for (auto& loop : loops_) closeOn(*loop);
  }
}

std::size_t TcpFabric::ReaderCount(NodeAddr addr) const {
  std::lock_guard lock(epMu_);
  const auto it = endpoints_.find(addr);
  if (it == endpoints_.end()) return 0;
  std::lock_guard rlock(it->second->inMu);
  return it->second->inConns.size();
}

std::size_t TcpFabric::ActiveOutboundConnections() const {
  return activeOutbound_.load(std::memory_order_relaxed);
}

void TcpFabric::AdoptInbound(Endpoint* ep, int fd) {
  // A hosted endpoint reads on its own loop, the one running this accept;
  // a pooled one spreads its sockets round-robin over the pool.
  sched::ThreadExecutor& loop =
      ep->host != nullptr ? *ep->host
                          : PoolLoop(nextLoop_.fetch_add(1, std::memory_order_relaxed));
  auto conn = std::make_shared<Conn>(this, ep, fd, &loop);
  {
    std::lock_guard lock(ep->inMu);
    ep->inConns.push_back(conn);
  }
  if (loop.InDispatchThread()) {
    conn->Attach();
  } else {
    loop.Post([conn] { conn->Attach(); });
  }
}

void TcpFabric::RemoveInbound(Endpoint* ep, Conn* conn) {
  std::lock_guard lock(ep->inMu);
  for (auto it = ep->inConns.begin(); it != ep->inConns.end(); ++it) {
    if (it->get() == conn) {
      ep->inConns.erase(it);
      return;
    }
  }
}

void TcpFabric::Claim(const std::shared_ptr<Conn>& conn, NodeAddr peer) {
  std::lock_guard lock(connsMu_);
  conn->LearnPeer(peer);
  if (shuttingDown_) return;
  {
    std::lock_guard epLock(epMu_);
    const auto it = endpoints_.find(conn->local());
    if (it == endpoints_.end() || it->second.get() != conn->endpoint()) return;
  }
  // A pair that already has a socket keeps it (a crossing dial); one whose
  // connection is socketless and idle hands over.
  auto& slot = conns_[PairKey(conn->local(), conn->peer())];
  if (slot == nullptr || slot->RetireIfIdle()) slot = conn;
}

void TcpFabric::HandOver(const std::shared_ptr<Conn>& conn) {
  Endpoint* ep = conn->endpoint();
  if (ep == nullptr) return;
  std::lock_guard lock(connsMu_);
  // Still the pair's connection, so the endpoint is still registered.
  const auto it = conns_.find(PairKey(conn->local(), conn->peer()));
  if (it == conns_.end() || it->second != conn) return;
  std::shared_ptr<Conn> heir;
  {
    std::lock_guard inLock(ep->inMu);
    for (const auto& c : ep->inConns) {
      if (c->KnowsPeer(conn->peer())) {
        heir = c;
        break;
      }
    }
  }
  if (heir != nullptr && conn->RetireIfIdle()) it->second = heir;
}

// ---- send path ----

std::shared_ptr<TcpFabric::Conn> TcpFabric::GetConnection(NodeAddr from, NodeAddr to) {
  {
    std::shared_lock lock(connsMu_);
    if (shuttingDown_) return nullptr;
    const auto it = conns_.find(PairKey(from, to));
    if (it != conns_.end()) return it->second;
  }
  std::lock_guard lock(connsMu_);
  if (shuttingDown_) return nullptr;
  auto& slot = conns_[PairKey(from, to)];
  if (slot == nullptr) {
    // A hosted sender's pairs share its loop, so it drains its own backlog
    // and handles the replies arriving on them; any other sender's go on
    // the pool.
    Endpoint* ep = nullptr;
    {
      std::lock_guard epLock(epMu_);
      const auto it = endpoints_.find(from);
      if (it != endpoints_.end()) ep = it->second.get();
    }
    sched::ThreadExecutor* loop = ep != nullptr ? ep->host : nullptr;
    if (loop == nullptr) loop = &PoolLoop(PairKey(from, to));
    slot = std::make_shared<Conn>(this, ep, from, to, loop);
  }
  return slot;
}

void TcpFabric::Send(NodeAddr from, NodeAddr to, proto::Message message) {
  // Injected faults: a wedged end or a lossy link loses the frame silently
  // (a wedge keeps the connection looking "up", so only a missing
  // heartbeat exposes it); a downed or cut link also tells the sender.
  const FaultVerdict verdict = faults_.Check(from, to);
  if (verdict.fate != FaultVerdict::Fate::kDeliver) {
    Count(to, {.messagesSent = 1, .messagesDropped = 1});
    if (verdict.fate == FaultVerdict::Fate::kLosePeerDown) NotifyPeerDown(from, to);
    return;
  }

  // Encode into a buffer from this thread's pool, header first, so the hot
  // path reuses capacity instead of allocating per message. A bulk data
  // field is not copied in: its string leaves the message as the frame's
  // payload.
  Frame frame{BufferPool::Acquire(), {}};
  frame.head.resize(kFrameHeader);
  proto::EncodeAppendSplit(message, frame.head, frame.payload);
  const std::size_t size = frame.size();
  const auto length = static_cast<std::uint32_t>(size - kFrameHeader);
  std::memcpy(frame.head.data(), &length, 4);
  std::memcpy(frame.head.data() + 4, &from, 4);

  // The calling thread writes the frame itself unless an injected delay
  // must pace it, or the caller is an executor with more tasks queued: a
  // busy sender's frames are left to the loop, which batches them into
  // one sendmsg instead of one send per frame on the sender's thread.
  const bool writeThrough =
      verdict.delay == Duration::zero() && !sched::CallerHasBacklog();
  ssize_t written = Conn::kRetired;
  while (written == Conn::kRetired) {  // the pair changed hands: look again
    auto conn = GetConnection(from, to);
    if (conn == nullptr) {  // fabric shutting down
      Count(to, {.messagesSent = 1, .messagesDropped = 1});
      return;
    }
    written = conn->Submit(frame, writeThrough);
  }
  if (written < 0) {
    Count(to, {.messagesSent = 1, .messagesDropped = 1, .queueOverflows = 1});
    NotifyPeerDown(from, to);
    return;
  }
  Count(to, {.messagesSent = 1,
             .framesSent = static_cast<std::size_t>(written) == size,
             .bytesSent = static_cast<std::uint64_t>(written)});
}

void TcpFabric::NotifyPeerDown(NodeAddr from, NodeAddr to) {
  MessageSink* sink = nullptr;
  sched::Executor* exec = nullptr;
  {
    std::lock_guard lock(epMu_);
    const auto it = endpoints_.find(from);
    if (it == endpoints_.end()) return;
    sink = it->second->sink;
    exec = it->second->executor;
  }
  if (exec != nullptr) {
    exec->Post([sink, to] { sink->OnPeerDown(to); });
  } else {
    sink->OnPeerDown(to);
  }
}

// ---- counters ----

void TcpFabric::Count(NodeAddr peer, const Counters& delta) {
  CounterShard& shard = ThisThreadShard();
  std::lock_guard lock(shard.mu);
  Accumulate(shard.peers[peer], delta);
}

TcpFabric::CounterShard& TcpFabric::ThisThreadShard() {
  thread_local ThreadShards mine;
  for (const ThreadShards::Ref& ref : mine.refs) {
    if (ref.fabricId == id_) return *ref.shard;
  }
  return AddShard(mine);
}

TcpFabric::CounterShard& TcpFabric::AddShard(ThreadShards& mine) {
  // Forget the shards of fabrics that are gone: the thread holds the last
  // reference.
  std::erase_if(mine.refs, [](const ThreadShards::Ref& ref) {
    return ref.shard.use_count() == 1;
  });
  std::shared_ptr<CounterShard> shard;
  {
    std::lock_guard lock(shardsMu_);
    for (const auto& s : shards_) {
      if (!s->owned.load(std::memory_order_acquire)) {
        shard = s;  // left by a thread that exited; its counts stay
        break;
      }
    }
    if (shard == nullptr) shard = shards_.emplace_back(std::make_shared<CounterShard>());
    shard->owned.store(true, std::memory_order_relaxed);
  }
  mine.refs.push_back({id_, shard});
  return *shard;
}

net::Fabric::Counters TcpFabric::SumShards(std::optional<NodeAddr> peer) const {
  Counters out;
  std::lock_guard lock(shardsMu_);
  for (const auto& shard : shards_) {
    std::lock_guard shardLock(shard->mu);
    if (!peer.has_value()) {
      for (const auto& [_, c] : shard->peers) Accumulate(out, c);
    } else if (const auto it = shard->peers.find(*peer); it != shard->peers.end()) {
      Accumulate(out, it->second);
    }
  }
  return out;
}

net::Fabric::Counters TcpFabric::GetCounters() const { return SumShards(std::nullopt); }

net::Fabric::Counters TcpFabric::PerPeerCounters(NodeAddr peer) const {
  return SumShards(peer);
}

}  // namespace scalla::net
