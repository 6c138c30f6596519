#include "client/scalla_client.h"

#include <utility>

namespace scalla::client {
namespace {

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

// The value a walk's successful answer carries to its callback.
std::uint64_t ValueOf(const proto::XrdOpenResp& m) { return m.fileHandle; }
std::uint64_t ValueOf(const proto::XrdStatResp& m) { return m.size; }
std::uint64_t ValueOf(const proto::XrdUnlinkResp&) { return 0; }
std::uint64_t ValueOf(const proto::XrdChecksumResp& m) { return m.crc32; }

}  // namespace

ScallaClient::ScallaClient(const ClientConfig& config, sched::Executor& executor,
                           net::Fabric& fabric)
    : config_(config),
      executor_(executor),
      fabric_(fabric),
      rng_(0x57a1eULL ^ config.addr),
      openLatency_(metrics_.GetHistogram("client.open_latency")),
      retriesMetric_(metrics_.GetCounter("client.retries")),
      failoversMetric_(metrics_.GetCounter("client.head_failovers")),
      recoveriesMetric_(metrics_.GetCounter("client.recoveries")),
      redirectsMetric_(metrics_.GetCounter("client.redirects_followed")),
      loopBreaksMetric_(metrics_.GetCounter("client.redirect_loop_breaks")) {
  heads_.push_back(config_.head);
  for (const net::NodeAddr h : config_.extraHeads) {
    if (h != 0) heads_.push_back(h);
  }
}

bool ScallaClient::IsHead(net::NodeAddr addr) const {
  for (const net::NodeAddr h : heads_) {
    if (h == addr) return true;
  }
  return false;
}

void ScallaClient::RotateHeadAwayFrom(net::NodeAddr dead) {
  if (heads_.size() < 2 || CurrentHead() != dead) return;
  headIdx_ = (headIdx_ + 1) % heads_.size();
  failoversMetric_.Inc();
}

ScallaClient::Table::iterator ScallaClient::Track(Kind kind, net::NodeAddr node,
                                                  Callback done) {
  const auto it = pending_.try_emplace(nextReqId_++).first;
  it->second.kind = kind;
  it->second.node = node;
  it->second.done = std::move(done);
  return it;
}

// ------------------------------------------------------------ the walk

void ScallaClient::StartWalk(Kind kind, const std::string& path, Callback done,
                             std::uint8_t mode, bool create) {
  const auto it = Track(kind, CurrentHead(), std::move(done));
  Pending& p = it->second;
  p.path = path;
  p.mode = mode;
  p.create = create;
  p.start = executor_.clock().Now();
  SendAttempt(it->first);
}

void ScallaClient::SendAttempt(std::uint64_t reqId) {
  const auto it = pending_.find(reqId);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.kind == Kind::kStatsQuery) {  // its one deadline keeps running
    fabric_.Send(config_.addr, p.node, proto::StatsQuery{reqId});
    return;
  }
  // Armed before the send: a fabric that reports the peer down inside
  // Send may finish this request, so nothing touches `p` afterwards.
  CancelTimer(p);
  p.timer = executor_.RunAfter(kAttemptTimeout, [this, reqId] { OnTimeout(reqId); });
  // A refresh goes with one attempt only: the one that restarts at the head.
  const bool refresh = std::exchange(p.refresh, false);
  switch (p.kind) {
    case Kind::kOpen: {
      proto::XrdOpen msg;
      msg.reqId = reqId;
      msg.path = p.path;
      msg.mode = p.mode;
      msg.create = p.create;
      msg.refresh = refresh;
      msg.avoidNode = p.avoidNode;
      fabric_.Send(config_.addr, p.node, std::move(msg));
      return;
    }
    case Kind::kStat:
      fabric_.Send(config_.addr, p.node, proto::XrdStat{reqId, p.path, refresh, p.avoidNode});
      return;
    case Kind::kUnlink:
      fabric_.Send(config_.addr, p.node,
                   proto::XrdUnlink{reqId, p.path, refresh, p.avoidNode});
      return;
    case Kind::kChecksum:
      fabric_.Send(config_.addr, p.node,
                   proto::XrdChecksum{reqId, p.path, refresh, p.avoidNode});
      return;
    default:
      return;
  }
}

template <typename Resp>
void ScallaClient::OnWalkResp(net::NodeAddr from, const Resp& m, Kind kind) {
  const auto it = pending_.find(m.reqId);
  if (it == pending_.end() || it->second.kind != kind) return;
  Pending& p = it->second;
  // Only the node the current attempt went to speaks for it: a late
  // answer to an attempt that timed out or was redirected away must not
  // start a second walk.
  if (from != p.node) return;
  // Any response ends the current attempt; delayed re-sends re-arm it.
  CancelTimer(p);

  switch (m.status) {
    case proto::XrdStatus::kOk:
      Finish(m.reqId, proto::XrdErr::kNone, from, ValueOf(m));
      return;

    case proto::XrdStatus::kRedirect:
      if (++p.redirects > kMaxRedirects) {
        loopBreaksMetric_.Inc();
        Finish(m.reqId, proto::XrdErr::kLoop);
        return;
      }
      redirectsMetric_.Inc();
      p.node = m.redirectNode;
      SendAttempt(m.reqId);
      return;

    case proto::XrdStatus::kWait:
      if (++p.waits > kMaxWaits) break;
      retriesMetric_.Inc();
      executor_.RunAfter(Duration{m.waitNs}, [this, reqId = m.reqId] { SendAttempt(reqId); });
      return;

    case proto::XrdStatus::kError:
      if (m.err == proto::XrdErr::kStale) {
        // Transient inconsistency: retry from the head, but never
        // synchronously and never forever, spaced by a jittered delay.
        if (++p.staleRetries > kMaxStaleRetries) {
          Finish(m.reqId, proto::XrdErr::kStale);
          return;
        }
        retriesMetric_.Inc();
        p.node = CurrentHead();
        const auto base = kStaleRetryDelay.count();
        const Duration delay{base + static_cast<Duration::rep>(rng_.NextBelow(
                                        static_cast<std::uint64_t>(base) + 1))};
        executor_.RunAfter(delay, [this, reqId = m.reqId] { SendAttempt(reqId); });
        return;
      }
      if ((m.err == proto::XrdErr::kNotFound || m.err == proto::XrdErr::kNoSpace) &&
          !IsHead(from)) {
        // Vectored to a server that cannot serve the file (stale cache,
        // or a full server refusing a creation): reissue at the head
        // asking for a cache refresh and naming the failing host
        // (section III-C1).
        if (!Recover(p, from)) {
          Finish(m.reqId, proto::XrdErr::kNotFound);
          return;
        }
        SendAttempt(m.reqId);
        return;
      }
      Finish(m.reqId, m.err);
      return;
  }
  Finish(m.reqId, proto::XrdErr::kIo);
}

bool ScallaClient::Recover(Pending& p, net::NodeAddr failed) {
  if (++p.recoveries > kMaxRecoveries) return false;
  recoveriesMetric_.Inc();
  if (IsHead(failed)) {
    RotateHeadAwayFrom(failed);
  } else {
    p.refresh = true;
    p.avoidNode = failed;
  }
  p.node = CurrentHead();
  return true;
}

void ScallaClient::OnTimeout(std::uint64_t reqId) {
  const auto it = pending_.find(reqId);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  p.timer = sched::kInvalidTimer;
  // A walk's target went silent without breaking the connection (a wedged
  // process): recover exactly as if the connection had died. A stats
  // query's deadline passed: the head never answered.
  if (IsWalk(p.kind) && Recover(p, p.node)) {
    SendAttempt(reqId);
    return;
  }
  Finish(reqId, proto::XrdErr::kIo);
}

void ScallaClient::CancelTimer(Pending& p) {
  if (p.timer == sched::kInvalidTimer) return;
  executor_.Cancel(p.timer);
  p.timer = sched::kInvalidTimer;
}

template <typename Cb, typename... Args>
void ScallaClient::Complete(std::uint64_t reqId, Kind kind, Args&&... args) {
  const auto it = pending_.find(reqId);
  if (it == pending_.end() || it->second.kind != kind) return;  // stray or mistyped reply
  CancelTimer(it->second);
  auto entry = pending_.extract(it);
  std::get<Cb>(entry.mapped().done)(std::forward<Args>(args)...);
}

void ScallaClient::Finish(std::uint64_t reqId, proto::XrdErr err, net::NodeAddr node,
                          std::uint64_t value) {
  auto entry = pending_.extract(reqId);
  if (entry.empty()) return;
  Pending& p = entry.mapped();
  CancelTimer(p);
  std::visit(Overloaded{
                 [&](OpenCallback& done) {
                   OpenOutcome outcome;
                   outcome.err = err;
                   outcome.file = FileRef{node, value};
                   outcome.redirects = p.redirects;
                   outcome.waits = p.waits;
                   outcome.recoveries = p.recoveries;
                   outcome.elapsed = executor_.clock().Now() - p.start;
                   if (err == proto::XrdErr::kNone) openLatency_.Record(outcome.elapsed);
                   done(outcome);
                 },
                 [&](StatCallback& done) { done(err, value); },
                 [&](WriteCallback& done) { done(err, static_cast<std::uint32_t>(value)); },
                 [&](DoneCallback& done) { done(err); },
                 [&](ReadCallback& done) { done(err, {}); },
                 [&](ReadVCallback& done) { done(err, {}); },
                 [&](StatsQueryCallback& done) { done(ClusterStats{}); },
                 [&](CacheAdminCallback& done) { done(err, {}); },
                 [&](DrainCallback& done) { done(err, {}); },
             },
             p.done);
}

void ScallaClient::OnPeerDown(net::NodeAddr peer) {
  // A dead head hands its requests to the next head, if there is one.
  RotateHeadAwayFrom(peer);
  const bool alternate = CurrentHead() != peer;
  std::vector<std::uint64_t> resend;
  std::vector<std::uint64_t> failed;
  for (auto& [id, p] : pending_) {
    if (p.node != peer) continue;
    // A walk recovers and a stats query moves to the next head; nothing
    // else has anywhere to go.
    if (alternate && (IsWalk(p.kind) ? Recover(p, peer) : p.kind == Kind::kStatsQuery)) {
      p.node = CurrentHead();
      resend.push_back(id);
    } else {
      failed.push_back(id);
    }
  }
  for (const std::uint64_t id : resend) SendAttempt(id);
  for (const std::uint64_t id : failed) Finish(id, proto::XrdErr::kIo);
}

// ------------------------------------------------------------ requests

void ScallaClient::Open(const std::string& path, cms::AccessMode mode, bool create,
                        OpenCallback done) {
  StartWalk(Kind::kOpen, path, std::move(done), mode == cms::AccessMode::kRead ? 0 : 1,
            create);
}

void ScallaClient::Stat(const std::string& path, StatCallback done) {
  StartWalk(Kind::kStat, path, std::move(done));
}

void ScallaClient::Unlink(const std::string& path, DoneCallback done) {
  StartWalk(Kind::kUnlink, path, std::move(done));
}

void ScallaClient::Checksum(const std::string& path, ChecksumCallback done) {
  StartWalk(Kind::kChecksum, path, std::move(done));
}

void ScallaClient::Read(const FileRef& file, std::uint64_t offset, std::uint32_t length,
                        ReadCallback done) {
  proto::XrdRead msg;
  msg.reqId = Track(Kind::kRead, file.node, std::move(done))->first;
  msg.fileHandle = file.handle;
  msg.offset = offset;
  msg.length = length;
  fabric_.Send(config_.addr, file.node, std::move(msg));
}

void ScallaClient::ReadV(const FileRef& file, std::vector<proto::ReadSeg> segments,
                         ReadVCallback done) {
  proto::XrdReadV msg;
  msg.reqId = Track(Kind::kReadV, file.node, std::move(done))->first;
  msg.fileHandle = file.handle;
  msg.segments = std::move(segments);
  fabric_.Send(config_.addr, file.node, std::move(msg));
}

void ScallaClient::Write(const FileRef& file, std::uint64_t offset, std::string data,
                         WriteCallback done) {
  proto::XrdWrite msg;
  msg.reqId = Track(Kind::kWrite, file.node, std::move(done))->first;
  msg.fileHandle = file.handle;
  msg.offset = offset;
  msg.data = std::move(data);
  fabric_.Send(config_.addr, file.node, std::move(msg));
}

void ScallaClient::Close(const FileRef& file, DoneCallback done) {
  const std::uint64_t reqId = Track(Kind::kClose, file.node, std::move(done))->first;
  fabric_.Send(config_.addr, file.node, proto::XrdClose{reqId, file.handle});
}

void ScallaClient::Prepare(const std::vector<std::string>& paths, cms::AccessMode mode,
                           DoneCallback done) {
  proto::XrdPrepare msg;
  msg.reqId = Track(Kind::kPrepare, CurrentHead(), std::move(done))->first;
  msg.paths = paths;
  msg.mode = mode == cms::AccessMode::kRead ? 0 : 1;
  fabric_.Send(config_.addr, CurrentHead(), std::move(msg));
}

void ScallaClient::List(const std::string& prefix, ListCallback done) {
  if (config_.cnsd == 0) {
    done(proto::XrdErr::kInvalid, {});
    return;
  }
  const std::uint64_t reqId = Track(Kind::kList, config_.cnsd, std::move(done))->first;
  fabric_.Send(config_.addr, config_.cnsd, proto::CnsList{reqId, prefix});
}

void ScallaClient::QueryStats(StatsQueryCallback done, Duration timeout) {
  const auto it = Track(Kind::kStatsQuery, CurrentHead(), std::move(done));
  const std::uint64_t reqId = it->first;
  it->second.timer = executor_.RunAfter(timeout, [this, reqId] { OnTimeout(reqId); });
  SendAttempt(reqId);
}

void ScallaClient::CacheAdmin(proto::PcacheAdminOp op, const std::string& path,
                              CacheAdminCallback done) {
  proto::PcacheAdmin msg;
  msg.reqId = Track(Kind::kCacheAdmin, CurrentHead(), std::move(done))->first;
  msg.op = op;
  msg.path = path;
  fabric_.Send(config_.addr, CurrentHead(), std::move(msg));
}

void ScallaClient::Drain(const std::string& server, bool restore, DrainCallback done) {
  proto::CmsDrain msg;
  msg.reqId = Track(Kind::kDrain, CurrentHead(), std::move(done))->first;
  msg.server = server;
  msg.restore = restore;
  fabric_.Send(config_.addr, CurrentHead(), std::move(msg));
}

void ScallaClient::OnMessage(net::NodeAddr from, proto::Message message) {
  std::visit(
      [this, from](auto&& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, proto::XrdOpenResp>) {
          OnWalkResp(from, m, Kind::kOpen);
        } else if constexpr (std::is_same_v<M, proto::XrdStatResp>) {
          OnWalkResp(from, m, Kind::kStat);
        } else if constexpr (std::is_same_v<M, proto::XrdUnlinkResp>) {
          OnWalkResp(from, m, Kind::kUnlink);
        } else if constexpr (std::is_same_v<M, proto::XrdChecksumResp>) {
          OnWalkResp(from, m, Kind::kChecksum);
        } else if constexpr (std::is_same_v<M, proto::XrdReadResp>) {
          Complete<ReadCallback>(m.reqId, Kind::kRead, m.err, std::move(m.data));
        } else if constexpr (std::is_same_v<M, proto::XrdReadVResp>) {
          Complete<ReadVCallback>(m.reqId, Kind::kReadV, m.err, std::move(m.chunks));
        } else if constexpr (std::is_same_v<M, proto::XrdWriteResp>) {
          Complete<WriteCallback>(m.reqId, Kind::kWrite, m.err, m.written);
        } else if constexpr (std::is_same_v<M, proto::XrdCloseResp>) {
          Complete<DoneCallback>(m.reqId, Kind::kClose, m.err);
        } else if constexpr (std::is_same_v<M, proto::XrdPrepareResp>) {
          Complete<DoneCallback>(m.reqId, Kind::kPrepare, m.err);
        } else if constexpr (std::is_same_v<M, proto::CnsListResp>) {
          Complete<ListCallback>(m.reqId, Kind::kList, m.err, std::move(m.names));
        } else if constexpr (std::is_same_v<M, proto::StatsReply>) {
          Complete<StatsQueryCallback>(m.reqId, Kind::kStatsQuery,
                                       ClusterStats{true, m.nodeCount, std::move(m.snapshot)});
        } else if constexpr (std::is_same_v<M, proto::PcacheAdminResp>) {
          const proto::XrdErr err = m.err;
          Complete<CacheAdminCallback>(m.reqId, Kind::kCacheAdmin, err, std::move(m));
        } else if constexpr (std::is_same_v<M, proto::CmsDrainResp>) {
          Complete<DrainCallback>(m.reqId, Kind::kDrain,
                                  m.ok ? proto::XrdErr::kNone : proto::XrdErr::kInvalid, m);
        }
      },
      std::move(message));
}

}  // namespace scalla::client
