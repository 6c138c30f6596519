#include "cms/head_core.h"

#include "util/logger.h"

namespace scalla::cms {

HeadCore::HeadCore(const CmsConfig& config, SelectCriterion criterion, std::string name,
                   net::NodeAddr addr, sched::Executor& executor, net::Fabric& fabric,
                   obs::MetricsRegistry& metrics, Wiring wiring)
    : config_(config),
      name_(std::move(name)),
      addr_(addr),
      executor_(executor),
      fabric_(fabric),
      wiring_(std::move(wiring)),
      membership_(config_, executor.clock()),
      cache_(config_, executor.clock(), membership_.corrections()),
      respq_(config_, executor.clock()),
      selection_(criterion),
      resolver_(config_, executor.clock(), membership_, cache_, respq_, selection_,
                [this](ServerSet targets, const std::string& path, std::uint32_t hash,
                       AccessMode mode) { SendQueryDown(targets, path, hash, mode); }),
      maintenance_(config_, executor, cache_, respq_, membership_),
      pingsSent_(metrics.GetCounter(wiring_.counterPrefix + "pings_sent")),
      pongsReceived_(metrics.GetCounter(wiring_.counterPrefix + "pongs_received")) {}

void HeadCore::Start(bool headDuties) {
  MaintenanceDriver::Options opts;
  opts.windowTick = true;
  opts.dropScan = headDuties;
  maintenance_.Start(opts, [this](ServerSlot slot) {
    const net::NodeAddr addr = slotAddr_[slot];
    if (addr != 0) {
      addrSlot_.erase(addr);
      slotAddr_[slot] = 0;
    }
  });
  if (headDuties && config_.ping > Duration::zero()) {
    pingTimer_ = executor_.RunEvery(config_.ping, [this] { HeartbeatTick(); });
  }
}

void HeadCore::Stop() {
  maintenance_.Stop();
  if (pingTimer_ != sched::kInvalidTimer) {
    executor_.Cancel(pingTimer_);
    pingTimer_ = sched::kInvalidTimer;
  }
}

net::NodeAddr HeadCore::AddrOfSlot(ServerSlot slot) const {
  return slot >= 0 && slot < kMaxServersPerSet ? slotAddr_[slot] : 0;
}

std::optional<ServerSlot> HeadCore::SlotOfAddr(net::NodeAddr addr) const {
  const auto it = addrSlot_.find(addr);
  if (it == addrSlot_.end()) return std::nullopt;
  return it->second;
}

std::vector<net::NodeAddr> HeadCore::OnlineAddrs() const {
  std::vector<net::NodeAddr> addrs;
  const ServerSet online = membership_.OnlineSet();
  for (ServerSlot s = online.first(); s >= 0; s = online.next(s)) {
    if (slotAddr_[s] != 0) addrs.push_back(slotAddr_[s]);
  }
  return addrs;
}

std::optional<Membership::LoginResult> HeadCore::Admit(
    net::NodeAddr from, const std::string& name, const std::vector<std::string>& exports,
    bool allowWrite, bool isSupervisor) {
  // A re-login from a known address may land on a different slot (changed
  // exports drop the old identity); clear the stale mapping.
  const auto oldSlot = SlotOfAddr(from);
  const auto result = membership_.Login(name, exports, allowWrite, isSupervisor);
  if (!result.has_value()) return std::nullopt;
  if (oldSlot.has_value() && *oldSlot != result->slot) slotAddr_[*oldSlot] = 0;
  slotAddr_[result->slot] = from;
  addrSlot_[from] = result->slot;
  return result;
}

void HeadCore::OnPeerDown(net::NodeAddr peer) {
  const auto slot = SlotOfAddr(peer);
  if (slot.has_value()) membership_.Disconnect(*slot);
}

void HeadCore::OnPong(net::NodeAddr from, const proto::CmsPong& m) {
  const auto slot = SlotOfAddr(from);
  if (!slot.has_value()) return;
  pongsReceived_.Inc();
  membership_.OnPong(*slot);
  // Piggybacked load keeps selection metrics fresh between load reports
  // (and drives suspend/resume just like a report would).
  const auto info = membership_.InfoOf(*slot);
  if (info.has_value() && info->online) {
    membership_.ReportLoad(*slot, wiring_.pongLoad(*slot, m.load), m.freeSpace);
  }
}

bool HeadCore::OnHave(net::NodeAddr from, const std::string& path, std::uint32_t hash,
                      bool pending, bool allowWrite) {
  const auto slot = SlotOfAddr(from);
  if (!slot.has_value()) return false;
  resolver_.OnHave(path, hash, *slot, pending, allowWrite);
  return true;
}

bool HeadCore::OnGone(net::NodeAddr from, const std::string& path) {
  const auto slot = SlotOfAddr(from);
  if (!slot.has_value()) return false;
  resolver_.OnGone(path, *slot);
  return true;
}

LocateOptions HeadCore::OptionsFor(std::uint8_t mode, bool refresh,
                                   net::NodeAddr avoid) const {
  LocateOptions opts;
  opts.mode = mode == 0 ? AccessMode::kRead : AccessMode::kWrite;
  opts.refresh = refresh;
  if (avoid != 0) {
    const auto slot = SlotOfAddr(avoid);
    if (slot.has_value()) opts.avoid = *slot;
  }
  return opts;
}

ServerSlot HeadCore::ChooseCreateTarget(const std::string& path, ServerSlot avoid) {
  const ServerSet candidates = membership_.EligibleFor(path) & membership_.SelectableSet();
  ServerSet writable;
  for (ServerSlot s = candidates.first(); s >= 0; s = candidates.next(s)) {
    const auto info = membership_.InfoOf(s);
    if (info && info->allowWrite) writable.set(s);
  }
  ServerSet avoidSet;
  if (avoid >= 0) avoidSet.set(avoid);
  return selection_.Choose(
      writable.Without(avoidSet).empty() ? writable : writable.Without(avoidSet),
      ServerSet::None(), membership_);
}

void HeadCore::Prefetch(const std::vector<std::string>& paths, std::uint8_t mode) {
  const LocateOptions opts = OptionsFor(mode, false, 0);
  for (const auto& path : paths) {
    resolver_.Locate(path, opts, [](const LocateResult&) { /* warming only */ });
  }
}

void HeadCore::ExportMetrics(obs::MetricsSnapshot& snap) const {
  cache_.ExportMetrics(snap);
  resolver_.ExportMetrics(snap);
  respq_.ExportMetrics(snap);
  maintenance_.ExportMetrics(snap);
  membership_.ExportMetrics(snap);
}

void HeadCore::HeartbeatTick() {
  const auto hb = membership_.HeartbeatTick();
  proto::CmsPing ping;
  ping.seq = ++pingSeq_;
  const auto send = [&](ServerSlot s) {
    const net::NodeAddr addr = slotAddr_[s];
    if (addr == 0) return;
    pingsSent_.Inc();
    fabric_.Send(addr_, addr, ping);
  };
  for (const ServerSlot s : hb.ping) send(s);
  // Offline members still in the drop window get a reconnect invitation:
  // a wedged subordinate that recovers re-logs in and resumes its slot.
  ping.reconnect = true;
  for (const ServerSlot s : hb.reconnect) send(s);
  for (const auto& [slot, name] : hb.died) {
    // DeclareDead already ran inside HeartbeatTick: one correction-counter
    // bump sheds the member's V_h/V_p bits lazily, in O(1).
    SCALLA_WARN("cms", "%s: declaring '%s' (slot %d) dead after %d missed pings",
                name_.c_str(), name.c_str(), slot, config_.missLimit);
    wiring_.onDeath(name);
  }
}

void HeadCore::SendQueryDown(ServerSet targets, const std::string& path,
                             std::uint32_t hash, AccessMode mode) {
  const proto::Message query = wiring_.queryFrame(path, hash, mode);
  for (ServerSlot s = targets.first(); s >= 0; s = targets.next(s)) {
    const net::NodeAddr addr = slotAddr_[s];
    if (addr != 0) fabric_.Send(addr_, addr, query);
  }
}

}  // namespace scalla::cms
