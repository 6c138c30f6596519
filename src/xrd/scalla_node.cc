#include "xrd/scalla_node.h"

#include <algorithm>
#include <utility>

#include "util/crc32.h"
#include "util/logger.h"

namespace scalla::xrd {

using cms::AccessMode;
using cms::LocateResult;
using cms::LocateStatus;

namespace {

AccessMode ModeOf(std::uint8_t raw) {
  return raw == 0 ? AccessMode::kRead : AccessMode::kWrite;
}

proto::Message CmsQueryFrame(const std::string& path, std::uint32_t hash, AccessMode mode) {
  return proto::CmsQuery{path, hash, mode == AccessMode::kRead ? std::uint8_t{0} : std::uint8_t{1}};
}

}  // namespace

ScallaNode::NodeMetrics::NodeMetrics(obs::MetricsRegistry& r)
    : opensServed(r.GetCounter("node.opens_served")),
      reads(r.GetCounter("node.reads")),
      writes(r.GetCounter("node.writes")),
      queriesAnswered(r.GetCounter("node.queries_answered")),
      queriesSilent(r.GetCounter("node.queries_silent")),
      redirectsIssued(r.GetCounter("node.redirects_issued")),
      waitsIssued(r.GetCounter("node.waits_issued")),
      stagesStarted(r.GetCounter("node.stages_started")),
      creates(r.GetCounter("node.creates")),
      loginsAccepted(r.GetCounter("node.logins_accepted")),
      loginsSent(r.GetCounter("node.logins_sent")),
      refreshes(r.GetCounter("node.refreshes")),
      statsQueries(r.GetCounter("node.stats_queries")) {}

ScallaNode::ScallaNode(NodeConfig config, sched::Executor& executor, net::Fabric& fabric,
                       oss::Oss* storage)
    : config_(std::move(config)),
      executor_(executor),
      fabric_(fabric),
      storage_(storage),
      core_(config_.cms, config_.selection, config_.name, config_.addr, executor, fabric,
            metrics_,
            {"node.", &CmsQueryFrame, [](ServerSlot, std::uint32_t load) { return load; },
             [this](const std::string& name) { FanToSupervisors(proto::CmsDeath{name}); }}),
      nm_(metrics_),
      stats_(config_.addr, executor, fabric, config_.statsTimeout) {
  if (config_.parent != 0) parents_.push_back(config_.parent);
  for (const net::NodeAddr p : config_.extraParents) {
    if (p != 0) parents_.push_back(p);
  }
}

bool ScallaNode::LoggedIn() const { return slotAtParent_.size() == parents_.size(); }

bool ScallaNode::LoggedInTo(net::NodeAddr parent) const {
  return slotAtParent_.count(parent) != 0;
}

bool ScallaNode::IsParent(net::NodeAddr addr) const {
  for (const net::NodeAddr p : parents_) {
    if (p == addr) return true;
  }
  return false;
}

ScallaNode::~ScallaNode() { Stop(); }

void ScallaNode::Start() {
  if (started_) return;
  started_ = true;
  if (!parents_.empty()) SendLogins();
  if (!config_.startTimers) return;
  core_.Start(IsHead());
  if (config_.role == NodeRole::kServer && config_.loadReportInterval > Duration::zero()) {
    loadTimer_ = executor_.RunEvery(config_.loadReportInterval, [this] {
      const auto [load, free] = CurrentLoad();
      ReportLoad(load, free);
    });
  }
  if (config_.role == NodeRole::kManager && config_.meta != 0) {
    SendFedSubscribe();
    fedTimer_ = executor_.RunEvery(config_.loginRetry, [this] {
      if (!FedSubscribed()) SendFedSubscribe();
    });
  }
}

void ScallaNode::Stop() {
  core_.Stop();
  for (sched::TimerId* id : {&loginTimer_, &loadTimer_, &fedTimer_}) {
    if (*id != sched::kInvalidTimer) {
      executor_.Cancel(*id);
      *id = sched::kInvalidTimer;
    }
  }
  stats_.Cancel();
  fedClusterId_ = -1;  // a restarted manager re-subscribes from scratch
  started_ = false;
}

void ScallaNode::SendLoginTo(net::NodeAddr parent) {
  proto::CmsLogin login;
  login.name = config_.name;
  login.exports = config_.exports;
  login.allowWrite = config_.allowWrite;
  login.isSupervisor = config_.role == NodeRole::kSupervisor;
  nm_.loginsSent.Inc();
  fabric_.Send(config_.addr, parent, std::move(login));
}

void ScallaNode::SendLogins() {
  for (const net::NodeAddr parent : parents_) SendLoginTo(parent);
  // Re-send until responses arrive (lost logins / parent restarts).
  if (loginTimer_ == sched::kInvalidTimer) {
    loginTimer_ = executor_.RunEvery(config_.loginRetry, [this] {
      for (const net::NodeAddr parent : parents_) {
        if (!LoggedInTo(parent)) SendLoginTo(parent);
      }
    });
  }
}

// ---------------------------------------------------------------------
// federation (manager <-> meta-manager)

void ScallaNode::SendFedSubscribe() {
  proto::FedSubscribe sub;
  sub.cluster = config_.clusterName.empty() ? config_.name : config_.clusterName;
  sub.exports = config_.exports;
  sub.allowWrite = config_.allowWrite;
  sub.locality = config_.locality;
  fabric_.Send(config_.addr, config_.meta, std::move(sub));
}

void ScallaNode::HandleFedSubscribeResp(net::NodeAddr from,
                                        const proto::FedSubscribeResp& m) {
  if (from != config_.meta) return;
  if (!m.ok) {
    SCALLA_WARN("node", "%s: federation subscribe rejected: %s", config_.name.c_str(),
                m.error.c_str());
    return;
  }
  fedClusterId_ = m.clusterId;
}

void ScallaNode::HandleFedQuery(net::NodeAddr from, const proto::FedQuery& m) {
  if (from != config_.meta || config_.role != NodeRole::kManager) return;
  // The supervisor's CmsQuery answer, lifted to federation scope.
  AnswerFromSubtree<proto::FedHave>(from, m);
}

void ScallaNode::NotifyMetaHave(const proto::CmsHave& m) {
  if (config_.role != NodeRole::kManager || config_.meta == 0) return;
  proto::FedHave up;
  up.path = m.path;
  up.hash = m.hash;
  up.pending = m.pending;
  up.allowWrite = config_.allowWrite;
  up.newfile = true;
  fabric_.Send(config_.addr, config_.meta, std::move(up));
}

void ScallaNode::NotifyParentHave(const std::string& path, bool pending) {
  proto::CmsHave have;
  have.path = path;
  have.hash = cms::LocationCache::HashOf(path);
  have.pending = pending;
  have.allowWrite = config_.allowWrite;
  have.newfile = true;
  if (config_.cnsd != 0) fabric_.Send(config_.addr, config_.cnsd, have);
  for (const net::NodeAddr parent : parents_) fabric_.Send(config_.addr, parent, have);
}

std::string ScallaNode::DescribeStatus() const {
  const auto cache = core_.cache().GetStats();
  const auto resolver = core_.resolver().GetStats();
  const auto respq = core_.respq().GetStats();
  char buf[640];
  const char* role = config_.role == NodeRole::kManager      ? "manager"
                     : config_.role == NodeRole::kSupervisor ? "supervisor"
                                                             : "server";
  std::snprintf(
      buf, sizeof(buf),
      "%s '%s' addr=%u members=%zu online=%d\n"
      "  cache: %zu live / %zu buckets (fib), %zu lookups (%.1f%% hit), "
      "%zu rehashes, %zu corrections (%zu memoized), %zu recycled\n"
      "  resolver: %zu locates, %zu cached redirects, %zu fast redirects, "
      "%zu floods (%zu msgs), %zu not-found, %zu full delays\n"
      "  respq: %zu anchors busy, %zu adds, %zu releases, %zu expirations\n"
      "  files: %zu open handles, %llu opens, %llu creates, %llu queries answered",
      role, config_.name.c_str(), config_.addr, core_.membership().MemberCount(),
      core_.membership().OnlineSet().count(), cache.liveObjects, cache.buckets, cache.lookups,
      cache.lookups == 0 ? 0.0
                         : 100.0 * static_cast<double>(cache.hits) /
                               static_cast<double>(cache.lookups),
      cache.rehashes, cache.corrections, cache.correctionMemoHits, cache.recycled,
      resolver.locates, resolver.redirects, resolver.fastRedirects,
      resolver.queriesSent, resolver.queryMessages, resolver.notFound,
      resolver.fullDelays, respq.anchorsInUse, respq.adds, respq.releases,
      respq.expirations, openFiles_.size(),
      static_cast<unsigned long long>(nm_.opensServed.Value()),
      static_cast<unsigned long long>(nm_.creates.Value()),
      static_cast<unsigned long long>(nm_.queriesAnswered.Value()));
  return buf;
}

obs::MetricsSnapshot ScallaNode::SnapshotMetrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  core_.ExportMetrics(snap);
  snap.AddGauge("node.open_handles", static_cast<std::int64_t>(openFiles_.size()));
  snap.AddGauge("node.members", static_cast<std::int64_t>(core_.membership().MemberCount()));
  snap.AddCounter("node.count", 1);  // lets aggregated views report fleet size
  if (config_.exportFabricStats) {
    const auto net = fabric_.GetCounters();
    snap.AddCounter("fabric.messages_sent", net.messagesSent);
    snap.AddCounter("fabric.messages_delivered", net.messagesDelivered);
    snap.AddCounter("fabric.messages_dropped", net.messagesDropped);
    snap.AddCounter("fabric.frames_sent", net.framesSent);
    snap.AddCounter("fabric.frames_received", net.framesReceived);
    snap.AddCounter("fabric.bytes_sent", net.bytesSent);
    snap.AddCounter("fabric.bytes_received", net.bytesReceived);
    snap.AddCounter("fabric.reconnects", net.reconnects);
    snap.AddCounter("fabric.idle_reaps", net.idleReaps);
    snap.AddCounter("fabric.queue_overflows", net.queueOverflows);
    // Per-link wire attribution for this node's long-lived peers (its
    // heads and the cnsd): where the daemon's traffic actually goes.
    std::vector<net::NodeAddr> links(parents_.begin(), parents_.end());
    if (config_.cnsd != 0) links.push_back(config_.cnsd);
    for (const net::NodeAddr peer : links) {
      const auto link = fabric_.PerPeerCounters(peer);
      const std::string prefix = "fabric.link." + std::to_string(peer) + ".";
      snap.AddCounter(prefix + "frames_sent", link.framesSent);
      snap.AddCounter(prefix + "frames_received", link.framesReceived);
      snap.AddCounter(prefix + "bytes_sent", link.bytesSent);
      snap.AddCounter(prefix + "bytes_received", link.bytesReceived);
    }
  }
  return snap;
}

std::pair<std::uint32_t, std::uint64_t> ScallaNode::CurrentLoad() const {
  if (config_.role != NodeRole::kServer || storage_ == nullptr) return {0, 0};
  const std::uint64_t used = storage_->UsedBytes().value_or(0);
  const std::uint64_t free =
      used < config_.assumedCapacity ? config_.assumedCapacity - used : 0;
  return {static_cast<std::uint32_t>(openFiles_.size()), free};
}

void ScallaNode::ReportLoad(std::uint32_t load, std::uint64_t freeSpace) {
  lastLoad_ = load;
  lastFree_ = freeSpace;
  for (const net::NodeAddr parent : parents_) {
    fabric_.Send(config_.addr, parent, proto::CmsLoad{load, freeSpace, config_.name});
  }
}

void ScallaNode::OnPeerDown(net::NodeAddr peer) {
  if (IsParent(peer)) {
    slotAtParent_.erase(peer);
    return;  // loginTimer_ keeps retrying
  }
  core_.OnPeerDown(peer);
}

void ScallaNode::OnMessage(net::NodeAddr from, proto::Message message) {
  std::visit(
      [this, from](auto&& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, proto::CmsLogin>) {
          HandleLogin(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsLoginResp>) {
          HandleLoginResp(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsQuery>) {
          HandleQuery(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsHave>) {
          HandleHave(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsNoHave>) {
          // Request-rarely-respond: negatives carry no information here.
          // (Only the always-respond baseline emits them; the fabric's
          // per-type counters measure their cost in experiment E06.)
        } else if constexpr (std::is_same_v<M, proto::CmsGone>) {
          HandleGone(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsLoad>) {
          HandleLoad(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsPing>) {
          HandlePing(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsPong>) {
          core_.OnPong(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsDeath>) {
          HandleDeath(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsDrain>) {
          HandleDrain(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdOpen>) {
          HandleOpen(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdRead>) {
          HandleRead(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdReadV>) {
          HandleReadV(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdChecksum>) {
          HandleChecksum(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdWrite>) {
          HandleWrite(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdClose>) {
          HandleClose(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdStat>) {
          HandleStat(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdUnlink>) {
          HandleUnlink(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdPrepare>) {
          HandlePrepare(from, m);
        } else if constexpr (std::is_same_v<M, proto::StatsQuery>) {
          nm_.statsQueries.Inc();
          // A leaf answers from local state; a head folds in its subtree.
          stats_.OnQuery(from, m.reqId, SnapshotMetrics(),
                         IsHead() ? core_.OnlineAddrs() : std::vector<net::NodeAddr>{});
        } else if constexpr (std::is_same_v<M, proto::StatsReply>) {
          if (SlotOfAddr(from).has_value()) stats_.OnReply(m);
        } else if constexpr (std::is_same_v<M, proto::FedSubscribeResp>) {
          HandleFedSubscribeResp(from, m);
        } else if constexpr (std::is_same_v<M, proto::FedQuery>) {
          HandleFedQuery(from, m);
        } else if constexpr (std::is_same_v<M, proto::PcacheAdmin>) {
          // Cache administration only means something at a pcache proxy;
          // answer kInvalid so a mistargeted purge fails loudly.
          proto::PcacheAdminResp resp;
          resp.reqId = m.reqId;
          resp.err = proto::XrdErr::kInvalid;
          fabric_.Send(config_.addr, from, std::move(resp));
        } else {
          // CnsList et al. are served by the namespace daemon, not nodes.
        }
      },
      std::move(message));
}

template <typename Have, typename Query>
void ScallaNode::AnswerFromSubtree(net::NodeAddr from, const Query& m) {
  // Request-rarely-respond: resolve within the subtree; if anything down
  // there has the file, answer with a single Have — "multiple responses
  // ... are compressed into a single response indicating that the
  // supervisor has the file" (section II-B2).
  core_.resolver().Locate(
      m.path, core_.OptionsFor(m.mode, m.refresh, 0),
      [this, from, path = m.path, hash = m.hash](const LocateResult& r) {
        if (r.status == LocateStatus::kRedirect) {
          Have resp;
          resp.path = path;
          resp.hash = hash;
          resp.pending = r.pending;
          resp.allowWrite = config_.allowWrite;
          fabric_.Send(config_.addr, from, std::move(resp));
          nm_.queriesAnswered.Inc();
        } else if (std::is_same_v<Have, proto::CmsHave> &&
                   r.status == LocateStatus::kNotFound && config_.alwaysRespond) {
          fabric_.Send(config_.addr, from, proto::CmsNoHave{path, hash});
        } else {
          nm_.queriesSilent.Inc();
        }
      });
}

// ---------------------------------------------------------------------
// cms handlers

void ScallaNode::HandleLogin(net::NodeAddr from, const proto::CmsLogin& m) {
  proto::CmsLoginResp resp;
  if (!IsHead()) {
    resp.ok = false;
    resp.error = "not a cluster head";
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  const auto result = core_.Admit(from, m.name, m.exports, m.allowWrite, m.isSupervisor);
  if (!result.has_value()) {
    // Set full: send the newcomer down to a supervisor with capacity —
    // the 64-ary tree grows at the leaves, not by widening a set.
    resp.ok = false;
    resp.error = "cluster set full";
    for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
      const auto info = core_.membership().InfoOf(s);
      if (info && info->online && info->isSupervisor && AddrOfSlot(s) != 0) {
        resp.redirect = AddrOfSlot(s);
        break;
      }
    }
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  nm_.loginsAccepted.Inc();
  resp.ok = true;
  resp.slot = result->slot;
  fabric_.Send(config_.addr, from, std::move(resp));
}

void ScallaNode::HandleLoginResp(net::NodeAddr from, const proto::CmsLoginResp& m) {
  if (!IsParent(from)) return;
  if (!m.ok) {
    if (m.redirect != 0 && !IsParent(m.redirect)) {
      // The head's set is full; adopt the supervisor it pointed us at as
      // our parent on that side of the tree and log in there.
      for (net::NodeAddr& parent : parents_) {
        if (parent == from) {
          slotAtParent_.erase(from);
          parent = m.redirect;
          SendLoginTo(m.redirect);
          return;
        }
      }
    }
    SCALLA_WARN("node", "%s: login rejected: %s", config_.name.c_str(), m.error.c_str());
    return;
  }
  slotAtParent_[from] = m.slot;
}

void ScallaNode::HandleQuery(net::NodeAddr from, const proto::CmsQuery& m) {
  const AccessMode mode = ModeOf(m.mode);
  if (config_.role == NodeRole::kServer) {
    // Leaf: consult local storage. Request-rarely-respond — only holders
    // answer; an MSS-resident file counts as "being prepared to be online"
    // (V_p) since this server can stage it.
    const oss::FileState state = storage_->StateOf(m.path);
    bool have = false, pending = false;
    switch (state) {
      case oss::FileState::kOnline:
        have = true;
        break;
      case oss::FileState::kStaging:
      case oss::FileState::kInMss:
        have = true;
        pending = true;
        break;
      case oss::FileState::kAbsent:
        break;
    }
    if (have && mode == AccessMode::kWrite && !config_.allowWrite) have = false;
    if (have) {
      proto::CmsHave resp;
      resp.path = m.path;
      resp.hash = m.hash;
      resp.pending = pending;
      resp.allowWrite = config_.allowWrite;
      fabric_.Send(config_.addr, from, std::move(resp));
      nm_.queriesAnswered.Inc();
    } else if (config_.alwaysRespond) {
      fabric_.Send(config_.addr, from, proto::CmsNoHave{m.path, m.hash});
    } else {
      nm_.queriesSilent.Inc();  // silence IS the negative response
    }
    return;
  }

  AnswerFromSubtree<proto::CmsHave>(from, m);
}

void ScallaNode::HandleHave(net::NodeAddr from, const proto::CmsHave& m) {
  if (!core_.OnHave(from, m.path, m.hash, m.pending, m.allowWrite)) return;
  // New-file notifications propagate to the root so every level's cache
  // learns about creations that happened beneath it.
  if (m.newfile && !parents_.empty()) {
    proto::CmsHave up = m;
    up.allowWrite = config_.allowWrite;
    for (const net::NodeAddr parent : parents_) fabric_.Send(config_.addr, parent, up);
  }
  // At the cluster root the digest continues upward to the federation
  // meta-manager (if subscribed) so its cluster-location cache learns
  // about the creation without a FedQuery flood.
  if (m.newfile) NotifyMetaHave(m);
}

void ScallaNode::HandleGone(net::NodeAddr from, const proto::CmsGone& m) {
  if (!core_.OnGone(from, m.path)) return;
  for (const net::NodeAddr parent : parents_) fabric_.Send(config_.addr, parent, m);
  // Upward federation invalidation. Conservative: the meta clears this
  // whole cluster's bit even when other internal replicas remain — the
  // next FedQuery flood relearns them, trading a rare re-query for never
  // serving a cluster that lost its last copy.
  if (config_.role == NodeRole::kManager && config_.meta != 0) {
    fabric_.Send(config_.addr, config_.meta, proto::FedGone{m.path});
  }
}

void ScallaNode::HandleLoad(net::NodeAddr from, const proto::CmsLoad& m) {
  // Route by stable identity first: a report that raced a re-login under a
  // different slot id must not be credited to whoever holds the old slot.
  cms::Membership& members = core_.membership();
  if (!m.name.empty() && members.ReportLoadByName(m.name, m.load, m.freeSpace).has_value()) {
    return;
  }
  const auto slot = SlotOfAddr(from);
  if (!slot.has_value()) return;
  members.ReportLoad(*slot, m.load, m.freeSpace);
}

// ---------------------------------------------------------------------
// liveness / membership administration

void ScallaNode::HandlePing(net::NodeAddr from, const proto::CmsPing& m) {
  // A manager's "parent" for liveness purposes includes the federation
  // meta-manager: it pings cluster heads exactly as heads ping servers.
  const bool fromMeta = config_.meta != 0 && from == config_.meta &&
                        config_.role == NodeRole::kManager;
  if (!IsParent(from) && !fromMeta) return;
  if (m.reconnect) {
    if (fromMeta) {
      // The meta declared this whole cluster dead (partition healed):
      // re-subscribe to resume the cluster slot and restore its paths.
      fedClusterId_ = -1;
      SendFedSubscribe();
      return;
    }
    // The parent declared us dead (or saw us disconnect); re-login to
    // resume our slot and restore our paths — no full cluster refresh.
    slotAtParent_.erase(from);
    SendLoginTo(from);
    return;
  }
  proto::CmsPong pong;
  pong.seq = m.seq;
  pong.load = lastLoad_;
  pong.freeSpace = lastFree_;
  fabric_.Send(config_.addr, from, std::move(pong));
}

void ScallaNode::HandleDeath(net::NodeAddr from, const proto::CmsDeath& m) {
  if (!IsParent(from)) return;  // death notices only flow down the tree
  const auto slot = core_.membership().SlotOf(m.server);
  if (slot.has_value()) core_.membership().DeclareDead(*slot);
  // Fan further down regardless: the dead server may live deeper in a
  // subtree this node only knows through a supervisor.
  FanToSupervisors(m);
}

void ScallaNode::HandleDrain(net::NodeAddr from, const proto::CmsDrain& m) {
  const auto reply = [&](bool ok, bool applied, std::string error) {
    if (m.reqId == 0) return;  // fanned notices carry no reply path
    proto::CmsDrainResp resp;
    resp.reqId = m.reqId;
    resp.ok = ok;
    resp.applied = applied;
    resp.error = std::move(error);
    fabric_.Send(config_.addr, from, std::move(resp));
  };
  if (!IsHead()) {
    reply(false, false, "not a cluster head");
    return;
  }
  const auto slot = core_.membership().SlotOf(m.server);
  if (slot.has_value()) {
    core_.membership().SetDraining(*slot, !m.restore);
    reply(true, true, "");
    return;
  }
  // Unknown here: the server may sit deeper in the tree; forward to every
  // supervisor subtree (best-effort, no replies expected on that leg).
  const int fanned = FanToSupervisors(proto::CmsDrain{0, m.server, m.restore});
  if (fanned > 0) {
    reply(true, false, "");
  } else {
    reply(false, false, "unknown server '" + m.server + "'");
  }
}

int ScallaNode::FanToSupervisors(const proto::Message& notice) {
  int fanned = 0;
  const ServerSet online = core_.membership().OnlineSet();
  for (ServerSlot s = online.first(); s >= 0; s = online.next(s)) {
    const auto info = core_.membership().InfoOf(s);
    if (!info.has_value() || !info->isSupervisor) continue;
    const net::NodeAddr addr = AddrOfSlot(s);
    if (addr == 0) continue;
    fabric_.Send(config_.addr, addr, notice);
    ++fanned;
  }
  return fanned;
}

// ---------------------------------------------------------------------
// xrd handlers

void ScallaNode::HandleOpen(net::NodeAddr from, const proto::XrdOpen& m) {
  if (!IsHead()) {
    LeafOpen(from, m);
    return;
  }
  if (m.refresh) nm_.refreshes.Inc();
  core_.Answer<proto::XrdOpenResp>(from, m.reqId, m.path,
                                   core_.OptionsFor(m.mode, m.refresh, m.avoidNode),
                                   {&nm_.redirectsIssued, &nm_.waitsIssued}, m.create);
}

void ScallaNode::LeafOpen(net::NodeAddr from, const proto::XrdOpen& m) {
  proto::XrdOpenResp resp;
  resp.reqId = m.reqId;
  const AccessMode mode = ModeOf(m.mode);
  if (mode == AccessMode::kWrite && !config_.allowWrite) {
    resp.status = proto::XrdStatus::kError;
    resp.err = proto::XrdErr::kInvalid;
    resp.message = "read-only server";
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }

  switch (storage_->StateOf(m.path)) {
    case oss::FileState::kOnline: {
      const std::uint64_t fh = nextHandle_++;
      openFiles_[fh] = OpenFile{m.path, mode};
      resp.status = proto::XrdStatus::kOk;
      resp.fileHandle = fh;
      nm_.opensServed.Inc();
      break;
    }
    case oss::FileState::kInMss:
      nm_.stagesStarted.Inc();
      [[fallthrough]];
    case oss::FileState::kStaging: {
      // Kick (or poll) the stage and tell the client how long to wait.
      const auto remaining = storage_->BeginStage(m.path);
      resp.status = proto::XrdStatus::kWait;
      const Duration wait = remaining.value_or(config_.stagePollHint);
      resp.waitNs = std::min(wait, config_.stagePollHint).count();
      if (resp.waitNs <= 0) resp.waitNs = Duration(std::chrono::milliseconds(1)).count();
      nm_.waitsIssued.Inc();
      break;
    }
    case oss::FileState::kAbsent: {
      if (!m.create) {
        // The manager's cache vectored the client here in error (timing
        // edge, deletion race): the client recovers by re-asking the head
        // with refresh + avoid (section III-C1).
        resp.status = proto::XrdStatus::kError;
        resp.err = proto::XrdErr::kNotFound;
        break;
      }
      const Result<void> created = storage_->Create(m.path);
      if (!created) {
        resp.status = proto::XrdStatus::kError;
        resp.err = created.code();
        resp.message = created.error().message;
        break;
      }
      const std::uint64_t fh = nextHandle_++;
      openFiles_[fh] = OpenFile{m.path, mode};
      resp.status = proto::XrdStatus::kOk;
      resp.fileHandle = fh;
      nm_.creates.Inc();
      nm_.opensServed.Inc();
      NotifyParentHave(m.path, false);
      break;
    }
  }
  fabric_.Send(config_.addr, from, std::move(resp));
}

void ScallaNode::HandleRead(net::NodeAddr from, const proto::XrdRead& m) {
  proto::XrdReadResp resp;
  resp.reqId = m.reqId;
  const auto it = openFiles_.find(m.fileHandle);
  if (config_.role != NodeRole::kServer || it == openFiles_.end()) {
    resp.err = proto::XrdErr::kInvalid;
  } else {
    Result<std::string> data = storage_->Read(it->second.path, m.offset, m.length);
    if (data) {
      resp.data = std::move(data).value();
    } else {
      resp.err = data.code();
    }
    nm_.reads.Inc();
  }
  fabric_.Send(config_.addr, from, std::move(resp));
}

void ScallaNode::HandleReadV(net::NodeAddr from, const proto::XrdReadV& m) {
  // Vector read: every segment served from one request — the sparse
  // access pattern ROOT produces, without per-segment round trips.
  proto::XrdReadVResp resp;
  resp.reqId = m.reqId;
  const auto it = openFiles_.find(m.fileHandle);
  if (config_.role != NodeRole::kServer || it == openFiles_.end()) {
    resp.err = proto::XrdErr::kInvalid;
  } else {
    resp.chunks.reserve(m.segments.size());
    for (const auto& seg : m.segments) {
      Result<std::string> chunk = storage_->Read(it->second.path, seg.offset, seg.length);
      if (!chunk) {
        resp.err = chunk.code();
        resp.chunks.clear();
        break;
      }
      resp.chunks.push_back(std::move(chunk).value());
      nm_.reads.Inc();
    }
  }
  fabric_.Send(config_.addr, from, std::move(resp));
}

void ScallaNode::HandleChecksum(net::NodeAddr from, const proto::XrdChecksum& m) {
  proto::XrdChecksumResp resp;
  resp.reqId = m.reqId;
  if (!IsHead()) {
    // Data server: checksum the whole file content.
    std::uint32_t crc = 0;
    std::uint64_t offset = 0;
    proto::XrdErr err = proto::XrdErr::kNone;
    for (;;) {
      const Result<std::string> data = storage_->Read(m.path, offset, 1 << 16);
      if (!data) {
        err = data.code();
        break;
      }
      if (data.value().empty()) break;
      crc = util::Crc32(data.value(), crc);
      offset += data.value().size();
    }
    if (err != proto::XrdErr::kNone && offset == 0) {
      resp.status = proto::XrdStatus::kError;
      resp.err = err;
    } else {
      resp.status = proto::XrdStatus::kOk;
      resp.crc32 = crc;
    }
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  // Head: redirect like any meta-data operation.
  core_.Answer<proto::XrdChecksumResp>(from, m.reqId, m.path, {}, {});
}

void ScallaNode::HandleWrite(net::NodeAddr from, const proto::XrdWrite& m) {
  proto::XrdWriteResp resp;
  resp.reqId = m.reqId;
  const auto it = openFiles_.find(m.fileHandle);
  if (config_.role != NodeRole::kServer || it == openFiles_.end()) {
    resp.err = proto::XrdErr::kInvalid;
  } else if (it->second.mode != AccessMode::kWrite) {
    resp.err = proto::XrdErr::kInvalid;
  } else {
    const Result<void> written = storage_->Write(it->second.path, m.offset, m.data);
    resp.err = written.code();
    resp.written = written ? static_cast<std::uint32_t>(m.data.size()) : 0;
    nm_.writes.Inc();
  }
  fabric_.Send(config_.addr, from, std::move(resp));
}

void ScallaNode::HandleClose(net::NodeAddr from, const proto::XrdClose& m) {
  proto::XrdCloseResp resp;
  resp.reqId = m.reqId;
  resp.err = openFiles_.erase(m.fileHandle) != 0 ? proto::XrdErr::kNone
                                                 : proto::XrdErr::kInvalid;
  fabric_.Send(config_.addr, from, std::move(resp));
}

void ScallaNode::HandleStat(net::NodeAddr from, const proto::XrdStat& m) {
  proto::XrdStatResp resp;
  resp.reqId = m.reqId;
  if (!IsHead()) {
    const auto info = storage_->Stat(m.path);
    if (info.has_value()) {
      resp.status = proto::XrdStatus::kOk;
      resp.size = info->size;
    } else {
      resp.status = proto::XrdStatus::kError;
      resp.err = proto::XrdErr::kNotFound;
    }
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  // Stat is a read-mode meta-data operation.
  core_.Answer<proto::XrdStatResp>(from, m.reqId, m.path, {}, {});
}

void ScallaNode::HandleUnlink(net::NodeAddr from, const proto::XrdUnlink& m) {
  proto::XrdUnlinkResp resp;
  resp.reqId = m.reqId;
  if (!IsHead()) {
    const Result<void> unlinked = storage_->Unlink(m.path);
    resp.status = unlinked ? proto::XrdStatus::kOk : proto::XrdStatus::kError;
    resp.err = unlinked.code();
    if (unlinked) {
      for (const net::NodeAddr parent : parents_) {
        fabric_.Send(config_.addr, parent, proto::CmsGone{m.path});
      }
      if (config_.cnsd != 0) {
        fabric_.Send(config_.addr, config_.cnsd, proto::CmsGone{m.path});
      }
    }
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  core_.Answer<proto::XrdUnlinkResp>(from, m.reqId, m.path, {}, {});
}

void ScallaNode::HandlePrepare(net::NodeAddr from, const proto::XrdPrepare& m) {
  // Parallel prepare (section III-B2): spawn one background look-up per
  // file; each may suffer the full delay internally, but the client sees
  // at most one because they run concurrently.
  if (IsHead()) {
    core_.Prefetch(m.paths, m.mode);
  } else {
    for (const auto& path : m.paths) storage_->BeginStage(path);
  }
  proto::XrdPrepareResp resp;
  resp.reqId = m.reqId;
  fabric_.Send(config_.addr, from, std::move(resp));
}

}  // namespace scalla::xrd
