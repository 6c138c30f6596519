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

struct TcpFabric::Endpoint {
  NodeAddr addr = 0;
  MessageSink* sink = nullptr;
  sched::Executor* executor = nullptr;
  // `executor` when it is a ThreadExecutor: the endpoint's listener and
  // its inbound and outbound connections all live on that loop, and frames
  // reach the sink inline. Null: they go on the fabric's loop pool.
  sched::ThreadExecutor* host = nullptr;

  int listenFd = -1;
  std::uint64_t listenerId = 0;
  sched::ThreadExecutor* listenerLoop = nullptr;
  std::shared_ptr<Listener> listener;

  // Live inbound connections; an InConn removes itself the moment its
  // socket dies, so the list never accumulates dead entries.
  mutable std::mutex inMu;
  std::vector<std::shared_ptr<InConn>> inConns;
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
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fabric_->AdoptInbound(ep_, fd);
    }
  }

 private:
  TcpFabric* fabric_;
  Endpoint* ep_;
};

// ---------------------------------------------------------------------------
// InConn: one accepted socket. Reads are readiness-driven into a reusable,
// never zero-filled rx buffer; frames are parsed incrementally (a frame may
// arrive across any number of reads) and delivered to the endpoint's sink:
// inline when this loop is the endpoint's own (or it has no executor),
// else posted to its executor.

class TcpFabric::InConn final : public sched::EventHandler,
                                public std::enable_shared_from_this<InConn> {
 public:
  InConn(TcpFabric* fabric, Endpoint* ep, int fd, sched::ThreadExecutor* loop)
      : fabric_(fabric), ep_(ep), fd_(fd), loop_(loop) {}

  sched::ThreadExecutor* loop() const { return loop_; }

  // Loop thread: registers the socket. A CloseOnLoop posted behind us (the
  // endpoint unregistering) still finds id_ set, so teardown stays exact.
  void Attach() {
    if (closed_) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
      return;
    }
    id_ = loop_->Add(fd_, EPOLLIN, shared_from_this());
  }

  // Loop thread.
  void CloseOnLoop() {
    if (closed_) return;
    closed_ = true;
    if (id_ != 0) {
      loop_->Del(id_);
      id_ = 0;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    fabric_->RemoveInbound(ep_, this);
  }

  void OnEvents(std::uint32_t /*events*/) override {
    if (closed_) return;
    std::size_t readThisPass = 0;
    for (;;) {
      MakeRoom();
      const std::size_t room = cap_ - len_;
      const ssize_t n = ::recv(fd_, rx_.get() + len_, room, 0);
      if (n == 0) {  // EOF
        CloseOnLoop();
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseOnLoop();
        return;
      }
      len_ += static_cast<std::size_t>(n);
      readThisPass += static_cast<std::size_t>(n);
      if (!ParseFrames()) return;
      // A short read emptied the socket: stop rather than pay a recv that
      // only returns EAGAIN. Level-triggered epoll re-reports later bytes.
      if (static_cast<std::size_t>(n) < room || readThisPass >= kMaxReadPerDispatch) {
        break;
      }
    }
    if (pos_ == len_) {
      pos_ = len_ = 0;
      if (cap_ > kRxShrinkCapacity) {  // give an outsized buffer back
        rx_.reset();
        cap_ = 0;
      }
    }
  }

 private:
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
  // the connection is closed: by a frame that can never become valid (bad
  // length, undecodable body), or by an inline handler that unregistered
  // the endpoint — ep_ may then be gone, so nothing here touches it again.
  bool ParseFrames() {
    for (;;) {
      const std::size_t avail = len_ - pos_;
      if (avail < kFrameHeader) return true;
      std::uint32_t length = 0;
      std::uint32_t sender = 0;
      std::memcpy(&length, rx_.get() + pos_, 4);
      std::memcpy(&sender, rx_.get() + pos_ + 4, 4);
      if (length == 0 || length > proto::kMaxFrameBody) {
        SCALLA_WARN("tcp", "endpoint %u: bad frame length %u from %u", ep_->addr,
                    length, sender);
        CloseOnLoop();
        return false;
      }
      if (avail < kFrameHeader + length) return true;
      const std::string_view body(rx_.get() + pos_ + kFrameHeader, length);
      auto message = proto::Decode(body);
      if (!message.has_value()) {
        SCALLA_WARN("tcp", "endpoint %u: malformed frame from %u", ep_->addr,
                    sender);
        CloseOnLoop();
        return false;
      }
      pos_ += kFrameHeader + length;
      // A fault injected while the frame was on the wire (a downed or
      // wedged end, a cut or lossy link) loses it silently — the
      // connection stays up.
      const bool deliver = fabric_->faults_.Check(sender, ep_->addr).fate ==
                           FaultVerdict::Fate::kDeliver;
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
      if (closed_) return false;
    }
  }

  bool CompleteFrameBuffered() const {
    const std::size_t avail = len_ - pos_;
    if (avail < kFrameHeader) return false;
    std::uint32_t length = 0;
    std::memcpy(&length, rx_.get() + pos_, 4);
    return avail >= kFrameHeader + length;
  }

  TcpFabric* fabric_;
  Endpoint* ep_;
  int fd_;
  sched::ThreadExecutor* loop_;
  std::uint64_t id_ = 0;
  bool closed_ = false;
  std::unique_ptr<char[]> rx_;  // unparsed bytes live in [pos_, len_)
  std::size_t cap_ = 0;
  std::size_t len_ = 0;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// OutConn: the outbound half of one (from, to) pair. Any thread submits
// frames under qmu_: it writes one through to the connected socket itself
// when the pair is idle, and otherwise queues it and "kicks" the owning
// loop at most once per quiet period. Connect, draining a backlog with
// writev, deadlines, delay pacing and idle reaping stay on the loop. A
// hosted sender's pairs live on its own loop, so its kick is a post to
// itself that drains each pair once the current round is done.

class TcpFabric::OutConn final : public sched::EventHandler,
                                 public std::enable_shared_from_this<OutConn> {
 public:
  OutConn(TcpFabric* fabric, NodeAddr from, NodeAddr to, sched::ThreadExecutor* loop)
      : fabric_(fabric), from_(from), to_(to), loop_(loop) {}

  sched::ThreadExecutor* loop() const { return loop_; }

  // Any thread. Hands one encoded frame to the pair, in order behind
  // anything already queued. With `writeThrough` set, an idle connected
  // pair has the calling thread send the frame itself; whatever the socket
  // does not take (EAGAIN, the tail of a partial write, or the whole frame
  // on an error, which resurfaces on the loop's next write) is queued with
  // its offset for the loop. Returns the bytes this call wrote, or -1 when
  // the bounded queue is full and the frame was refused.
  ssize_t Submit(std::string frame, bool writeThrough) {
    ssize_t written = 0;
    bool queued = false;
    bool kick = false;
    {
      std::lock_guard lock(qmu_);
      if (writeThrough && writable_ && queue_.empty()) {
        const ssize_t n = ::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL);
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
    if (!queued) fabric_->pool_.Release(std::move(frame));
    return written;
  }

  // Any thread: the peer's endpoint went away locally (Unregister). Treat
  // the cached socket like a peer restart: quietly drop it; the next frame
  // reconnects (counting one reconnect) and only a refused reconnect
  // escalates to OnPeerDown. Senders stop writing through at once, so a
  // frame sent after Unregister queues behind the detach.
  void PostDetachStale() {
    {
      std::lock_guard lock(qmu_);
      writable_ = false;
    }
    loop_->Post([self = shared_from_this()] { self->DetachStale(); });
  }

  // Loop thread (via RunSync): terminal teardown, no signalling.
  void StopOnLoop() {
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
    if ((events & EPOLLIN) != 0) {
      // Peers never send application data back on an outbound socket;
      // readable here means EOF or reset (or stray bytes we discard).
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        HandleBroken();
        return;
      }
    }
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      HandleBroken();
      return;
    }
    if ((events & EPOLLOUT) != 0) DrainWrites();
  }

 private:
  enum class State { kIdle, kConnecting, kConnected };

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
      // Replacing a cached connection that had worked: that is a
      // reconnect, and it is transparent unless the new connect fails.
      staleClosed_ = false;
      fabric_->Count(to_, {.reconnects = 1});
    }
    StartConnect();
  }

  void StartConnect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      FailAll();
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Without SO_REUSEADDR here, this socket's TIME_WAIT remnant blocks any
    // later listener bind that lands on the same (ephemeral) local port.
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (fabric_->options_.sendBufferBytes > 0) {
      const int size = static_cast<int>(fabric_->options_.sendBufferBytes);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
    }
    fd_ = fd;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port =
        htons(static_cast<std::uint16_t>(fabric_->basePort_ + to_));
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
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
    if (fabric_->options_.idleTimeout > std::chrono::milliseconds::zero()) {
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
      const FaultVerdict verdict = fabric_->faults_.Check(from_, to_);
      if (verdict.fate != FaultVerdict::Fate::kDeliver) {
        std::size_t n = 0;
        bool midFrame = false;
        {
          std::lock_guard lock(qmu_);
          midFrame = frontOffset_ > 0;
          if (midFrame) writable_ = false;  // no write-through onto a torn frame
          n = DropQueueLocked();
        }
        if (n > 0) fabric_->Count(to_, {.messagesDropped = n});
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
      // Build a writev batch from the queue front. The references stay
      // valid while unlocked: only this thread pops, and deque push_back
      // does not invalidate references to existing elements. Senders do
      // not write through while the queue is non-empty.
      iovec iov[kMaxWritevBatch];
      std::size_t nIov = 0;
      {
        std::lock_guard lock(qmu_);
        const std::size_t limit =
            std::min(queue_.size(), delay > Duration::zero() ? 1 : kMaxWritevBatch);
        for (std::size_t i = 0; i < limit; ++i) {
          const std::string& f = queue_[i];
          const std::size_t off = i == 0 ? frontOffset_ : 0;
          iov[nIov].iov_base = const_cast<char*>(f.data()) + off;
          iov[nIov].iov_len = f.size() - off;
          ++nIov;
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
          std::string& f = queue_.front();
          const std::size_t remain = f.size() - frontOffset_;
          if (consumed >= remain) {
            consumed -= remain;
            frontOffset_ = 0;
            fabric_->pool_.Release(std::move(f));
            queue_.pop_front();
            ++completed;
          } else {
            frontOffset_ += consumed;
            consumed = 0;
          }
        }
        if (completed > 0) frameDoneSinceConnect_ = true;
      }
      fabric_->Count(to_, {.framesSent = completed,
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
      next = lastActivity_ + fabric_->options_.idleTimeout;
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
      fabric_->Count(to_, {.idleReaps = 1});
      return;
    }
    if (next <= now) next = now + fabric_->options_.idleTimeout;
    loop_->RunAt(next, [self = shared_from_this(), gen] { self->OnIdleCheck(gen); });
  }

  // The connection broke (EOF, reset, write error, stalled write). If it
  // completed at least one frame since it connected it was a working,
  // cached connection that went stale (peer restart): replace it
  // transparently. Otherwise it never worked: fail the backlog and tell
  // the sender its peer is down.
  void HandleBroken() {
    bool progressed;
    {
      std::lock_guard lock(qmu_);
      progressed = frameDoneSinceConnect_;
    }
    CloseFd();
    deadlineArmed_ = false;
    if (progressed) {
      staleClosed_ = true;
      MaybeConnect();
    } else {
      FailAll();
    }
  }

  // Drop the whole backlog (delivery is per-pair FIFO, so later frames
  // cannot jump a failed one) and signal the sending endpoint.
  void FailAll() {
    staleClosed_ = false;
    std::size_t n = 0;
    {
      std::lock_guard lock(qmu_);
      n = DropQueueLocked();
    }
    if (n > 0) fabric_->Count(to_, {.messagesDropped = n});
    fabric_->NotifyPeerDown(from_, to_);
  }

  // Returns the queued frames to the pool; returns how many there were.
  std::size_t DropQueueLocked() {
    const std::size_t n = queue_.size();
    for (auto& f : queue_) fabric_->pool_.Release(std::move(f));
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
  // next connection resends it whole.
  void CloseFd() {
    {
      std::lock_guard lock(qmu_);
      writable_ = false;
      frontOffset_ = 0;
    }
    if (state_ == State::kConnected) {
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
    state_ = State::kIdle;
    wantWrite_ = false;
  }

  void SetWantWrite(bool want) {
    if (want == wantWrite_ || id_ == 0) return;
    wantWrite_ = want;
    std::uint32_t events = EPOLLIN;
    if (want) events |= EPOLLOUT;
    loop_->Mod(id_, events);
  }

  TcpFabric* fabric_;
  const NodeAddr from_;
  const NodeAddr to_;
  sched::ThreadExecutor* loop_;

  // Shared by the loop and every sending thread, under qmu_.
  std::mutex qmu_;
  std::deque<std::string> queue_;  // encoded frames (header + body)
  std::size_t frontOffset_ = 0;    // bytes of queue_.front() already sent
  bool kicked_ = false;            // a look at the queue is already scheduled
  bool writable_ = false;          // fd_ is connected: senders may write through
  bool frameDoneSinceConnect_ = false;
  TimePoint lastActivity_{};

  // Loop-thread-only (fd_ is written only while writable_ is false).
  State state_ = State::kIdle;
  int fd_ = -1;
  std::uint64_t id_ = 0;
  bool stopped_ = false;
  bool wantWrite_ = false;
  bool staleClosed_ = false;          // last socket was a working one
  bool deadlineArmed_ = false;
  std::uint64_t deadlineGen_ = 0;
  std::uint64_t connectGen_ = 0;
  std::uint64_t idleGen_ = 0;
  bool pacingActive_ = false;
  bool delayPumpArmed_ = false;
  TimePoint nextEligible_{};
};

// ---------------------------------------------------------------------------
// TcpFabric proper.

TcpFabric::TcpFabric(std::uint16_t basePort, FabricOptions options)
    : basePort_(basePort), options_(options) {
  for (int i = 0; i < kPoolLoops; ++i) {
    loops_.push_back(std::make_unique<sched::ThreadExecutor>());
  }
}

TcpFabric::~TcpFabric() {
  shuttingDown_ = true;
  // Stop outbound connections first so none can fire OnPeerDown into an
  // endpoint that is being torn down. A loop that has stopped runs its
  // RunSync inline, so executors stopped before the fabric are fine.
  std::map<std::uint64_t, std::shared_ptr<OutConn>> conns;
  {
    std::lock_guard lock(connsMu_);
    conns.swap(conns_);
  }
  for (auto& [_, conn] : conns) {
    OutConn* raw = conn.get();
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
  auto ep = std::make_unique<Endpoint>();
  ep->addr = addr;
  ep->sink = sink;
  ep->executor = executor;
  ep->host = dynamic_cast<sched::ThreadExecutor*>(executor);

  ep->listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ep->listenFd < 0) return false;
  const int one = 1;
  ::setsockopt(ep->listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(static_cast<std::uint16_t>(basePort_ + addr));
  if (::bind(ep->listenFd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
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
  // 1. Take the endpoint out of the map: from here on no new outbound
  //    connection of it is placed on its loop and no OnPeerDown reaches it.
  std::unique_ptr<Endpoint> ep;
  {
    std::lock_guard lock(epMu_);
    const auto it = endpoints_.find(addr);
    if (it != endpoints_.end()) {
      ep = std::move(it->second);
      endpoints_.erase(it);
    }
  }
  // 2. Stop this endpoint's own outbound connections; quietly stale-close
  //    everyone else's connection TO it so their next frame reconnects
  //    (and fails fast against the dead listener, firing OnPeerDown).
  std::vector<std::shared_ptr<OutConn>> mine;
  std::vector<std::shared_ptr<OutConn>> toward;
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
  for (auto& conn : mine) {
    OutConn* raw = conn.get();
    raw->loop()->RunSync([raw] { raw->StopOnLoop(); });
  }
  for (auto& conn : toward) conn->PostDetachStale();
  // 3. The listener and the inbound connections.
  if (ep != nullptr) CloseEndpoint(ep.get());
}

void TcpFabric::CloseEndpoint(Endpoint* ep) {
  // The listener first: no further accepts, so the inbound snapshot below
  // is complete (Attach posts precede our close posts in each loop's FIFO).
  ep->listenerLoop->RunSync([ep] {
    if (ep->listenerId != 0) ep->listenerLoop->Del(ep->listenerId);
    ::close(ep->listenFd);
    ep->listenerId = 0;
  });
  // Then every inbound connection, on its owning loop. Loops run tasks and
  // dispatches serially, so once each loop's RunSync returns, no inline
  // delivery into the endpoint's sink is running or can start — the
  // guarantee Unregister's callers rely on. A hosted endpoint reads only
  // on its own loop; a pooled one's connections may sit on any pool loop.
  std::vector<std::shared_ptr<InConn>> ins;
  {
    std::lock_guard lock(ep->inMu);
    ins = ep->inConns;
  }
  const auto closeOn = [&ins](sched::ThreadExecutor& loop) {
    loop.RunSync([&loop, &ins] {
      for (auto& c : ins) {
        if (c->loop() == &loop) c->CloseOnLoop();
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
  // a pooled one spreads its connections round-robin over the pool.
  sched::ThreadExecutor& loop =
      ep->host != nullptr ? *ep->host
                          : PoolLoop(nextLoop_.fetch_add(1, std::memory_order_relaxed));
  auto conn = std::make_shared<InConn>(this, ep, fd, &loop);
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

void TcpFabric::RemoveInbound(Endpoint* ep, InConn* conn) {
  std::lock_guard lock(ep->inMu);
  for (auto it = ep->inConns.begin(); it != ep->inConns.end(); ++it) {
    if (it->get() == conn) {
      ep->inConns.erase(it);
      return;
    }
  }
}

// ---- send path ----

std::shared_ptr<TcpFabric::OutConn> TcpFabric::GetConnection(NodeAddr from,
                                                             NodeAddr to) {
  std::lock_guard lock(connsMu_);
  if (shuttingDown_) return nullptr;
  auto& slot = conns_[PairKey(from, to)];
  if (slot == nullptr) {
    // A hosted sender's pairs share its loop, so it drains its own
    // backlog; any other sender's go on the pool.
    sched::ThreadExecutor* loop = nullptr;
    {
      std::lock_guard epLock(epMu_);
      const auto it = endpoints_.find(from);
      if (it != endpoints_.end()) loop = it->second->host;
    }
    if (loop == nullptr) loop = &PoolLoop(PairKey(from, to));
    slot = std::make_shared<OutConn>(this, from, to, loop);
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

  // Encode into a pooled buffer, header first, so the hot path reuses
  // capacity instead of allocating per message.
  std::string frame = pool_.Acquire();
  frame.resize(kFrameHeader);
  proto::EncodeAppend(message, frame);
  const std::size_t size = frame.size();
  const auto length = static_cast<std::uint32_t>(size - kFrameHeader);
  std::memcpy(frame.data(), &length, 4);
  std::memcpy(frame.data() + 4, &from, 4);

  auto conn = GetConnection(from, to);
  if (conn == nullptr) {  // fabric shutting down
    Count(to, {.messagesSent = 1, .messagesDropped = 1});
    return;
  }
  // The calling thread writes the frame itself unless an injected delay
  // must pace it, or the caller is an executor with more tasks queued: a
  // busy sender's frames are left to the loop, which batches them into
  // one sendmsg instead of one send per frame on the sender's thread.
  const bool writeThrough =
      verdict.delay == Duration::zero() && !sched::CallerHasBacklog();
  const ssize_t written = conn->Submit(std::move(frame), writeThrough);
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
  std::lock_guard lock(perPeerMu_);
  Accumulate(perPeer_[peer], delta);
}

net::Fabric::Counters TcpFabric::GetCounters() const {
  Counters out;
  std::lock_guard lock(perPeerMu_);
  for (const auto& [_, c] : perPeer_) Accumulate(out, c);
  return out;
}

net::Fabric::Counters TcpFabric::PerPeerCounters(NodeAddr peer) const {
  std::lock_guard lock(perPeerMu_);
  const auto it = perPeer_.find(peer);
  return it == perPeer_.end() ? Counters{} : it->second;
}

}  // namespace scalla::net
