#include "cms/membership.h"

namespace scalla::cms {

Membership::Membership(const CmsConfig& config, util::Clock& clock)
    : config_(config), clock_(clock) {}

ServerSlot Membership::FindFreeSlotLocked() const {
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (!members_[s].has_value()) return s;
  }
  return -1;
}

std::optional<Membership::LoginResult> Membership::Login(
    const std::string& name, const std::vector<std::string>& exports, bool allowWrite,
    bool isSupervisor) {
  std::lock_guard lock(mu_);

  // Reconnection of a still-known member?
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (!members_[s] || members_[s]->name != name) continue;
    if (paths_.SameExports(s, exports)) {
      // Un-dropped reconnect with identical exports: all cached location
      // information for this slot remains valid; information cached while
      // it was offline kept the server in V_q (queries could not be
      // issued), so no correction epoch bump is needed.
      if (!members_[s]->online) ++liveness_.rejoins;
      members_[s]->online = true;
      members_[s]->allowWrite = allowWrite;
      members_[s]->isSupervisor = isSupervisor;
      members_[s]->missedPings = 0;
      members_[s]->suspended = false;  // fresh start; draining is sticky
      return LoginResult{s, false, true};
    }
    // "If the server reconnects within the drop time limit but has a new
    // set of exported paths the reconnection is also treated as a new
    // connection." Drop first, then fall through to fresh registration.
    DropLocked(s);
    break;
  }

  const ServerSlot slot = FindFreeSlotLocked();
  if (slot < 0) return std::nullopt;  // set full: caller redirects to a supervisor

  MemberInfo info;
  info.name = name;
  info.slot = slot;
  info.online = true;
  info.allowWrite = allowWrite;
  info.isSupervisor = isSupervisor;
  members_[slot] = std::move(info);
  for (const auto& prefix : exports) paths_.AddExport(slot, prefix);
  corrections_.OnConnect(slot);  // adds the server to V_c-tracking (C[], N_c)
  return LoginResult{slot, true, false};
}

void Membership::Disconnect(ServerSlot slot) {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet || !members_[slot]) return;
  members_[slot]->online = false;
  members_[slot]->disconnectTime = clock_.Now();
  members_[slot]->missedPings = 0;
}

Membership::HeartbeatOutcome Membership::HeartbeatTick() {
  std::lock_guard lock(mu_);
  HeartbeatOutcome out;
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (!members_[s]) continue;
    MemberInfo& m = *members_[s];
    if (!m.online) {
      // Still within the drop window: invite it back (self-healing rejoin).
      out.reconnect.push_back(s);
      continue;
    }
    if (++m.missedPings >= config_.missLimit) {
      m.online = false;
      m.disconnectTime = clock_.Now();
      m.missedPings = 0;
      m.suspended = false;
      corrections_.Touch(s);  // cached V_h/V_p bits shed lazily via V_q
      ++liveness_.deaths;
      out.died.emplace_back(s, m.name);
    } else {
      out.ping.push_back(s);
    }
  }
  return out;
}

void Membership::OnPong(ServerSlot slot) {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet || !members_[slot]) return;
  members_[slot]->missedPings = 0;
}

bool Membership::DeclareDead(ServerSlot slot) {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet || !members_[slot]) return false;
  MemberInfo& m = *members_[slot];
  if (!m.online) return false;
  m.online = false;
  m.disconnectTime = clock_.Now();
  m.missedPings = 0;
  m.suspended = false;
  corrections_.Touch(slot);
  ++liveness_.deaths;
  return true;
}

bool Membership::SetDraining(ServerSlot slot, bool draining) {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet || !members_[slot]) return false;
  if (draining && !members_[slot]->draining) ++liveness_.drains;
  members_[slot]->draining = draining;
  return true;
}

std::vector<ServerSlot> Membership::DropExpired() {
  std::lock_guard lock(mu_);
  std::vector<ServerSlot> dropped;
  const TimePoint cutoff = clock_.Now() - config_.dropDelay;
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (members_[s] && !members_[s]->online && members_[s]->disconnectTime <= cutoff) {
      DropLocked(s);
      dropped.push_back(s);
    }
  }
  return dropped;
}

bool Membership::Drop(ServerSlot slot) {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet || !members_[slot]) return false;
  DropLocked(slot);
  return true;
}

void Membership::DropLocked(ServerSlot slot) {
  paths_.RemoveServer(slot);      // removed from each V_m where it appears
  corrections_.OnDrop(slot);
  members_[slot].reset();
}

ServerSet Membership::OnlineSet() const {
  std::lock_guard lock(mu_);
  ServerSet set;
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (members_[s] && members_[s]->online) set.set(s);
  }
  return set;
}

ServerSet Membership::OfflineSet() const {
  std::lock_guard lock(mu_);
  ServerSet set;
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (members_[s] && !members_[s]->online) set.set(s);
  }
  return set;
}

ServerSet Membership::MemberSet() const {
  std::lock_guard lock(mu_);
  ServerSet set;
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (members_[s]) set.set(s);
  }
  return set;
}

ServerSet Membership::SelectableSet() const {
  std::lock_guard lock(mu_);
  ServerSet set;
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (members_[s] && members_[s]->online && !members_[s]->suspended &&
        !members_[s]->draining) {
      set.set(s);
    }
  }
  return set;
}

ServerSet Membership::SuspendedSet() const {
  std::lock_guard lock(mu_);
  ServerSet set;
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (members_[s] && members_[s]->suspended) set.set(s);
  }
  return set;
}

ServerSet Membership::DrainingSet() const {
  std::lock_guard lock(mu_);
  ServerSet set;
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (members_[s] && members_[s]->draining) set.set(s);
  }
  return set;
}

bool Membership::IsSelectable(ServerSlot slot) const {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet || !members_[slot]) return false;
  const MemberInfo& m = *members_[slot];
  return m.online && !m.suspended && !m.draining;
}

std::optional<MemberInfo> Membership::InfoOf(ServerSlot slot) const {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet) return std::nullopt;
  return members_[slot];
}

std::optional<ServerSlot> Membership::SlotOf(const std::string& name) const {
  std::lock_guard lock(mu_);
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (members_[s] && members_[s]->name == name) return s;
  }
  return std::nullopt;
}

void Membership::ApplyLoadLocked(MemberInfo& m, std::uint32_t load,
                                 std::uint64_t freeSpace) {
  m.load = load;
  m.freeSpace = freeSpace;
  if (config_.suspendLoad == 0) return;
  const std::uint32_t resumeAt =
      config_.resumeLoad > 0 ? config_.resumeLoad : config_.suspendLoad / 2;
  if (!m.suspended && load >= config_.suspendLoad) {
    m.suspended = true;
    ++liveness_.suspends;
  } else if (m.suspended && load <= resumeAt) {
    m.suspended = false;
    ++liveness_.resumes;
  }
}

void Membership::ReportLoad(ServerSlot slot, std::uint32_t load, std::uint64_t freeSpace) {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet || !members_[slot]) return;
  ApplyLoadLocked(*members_[slot], load, freeSpace);
}

std::optional<ServerSlot> Membership::ReportLoadByName(const std::string& name,
                                                       std::uint32_t load,
                                                       std::uint64_t freeSpace) {
  std::lock_guard lock(mu_);
  for (ServerSlot s = 0; s < kMaxServersPerSet; ++s) {
    if (!members_[s] || members_[s]->name != name) continue;
    ApplyLoadLocked(*members_[s], load, freeSpace);
    return s;
  }
  return std::nullopt;
}

void Membership::CountSelection(ServerSlot slot) {
  std::lock_guard lock(mu_);
  if (slot < 0 || slot >= kMaxServersPerSet || !members_[slot]) return;
  ++members_[slot]->selectionCount;
}

ServerSet Membership::EligibleFor(std::string_view path) const {
  std::lock_guard lock(mu_);
  return paths_.Match(path);
}

Membership::LivenessStats Membership::GetLivenessStats() const {
  std::lock_guard lock(mu_);
  return liveness_;
}

void Membership::ExportMetrics(obs::MetricsSnapshot& snap) const {
  const LivenessStats live = GetLivenessStats();
  snap.AddCounter("membership.deaths", live.deaths);
  snap.AddCounter("membership.rejoins", live.rejoins);
  snap.AddCounter("membership.suspends", live.suspends);
  snap.AddCounter("membership.resumes", live.resumes);
  snap.AddCounter("membership.drains", live.drains);
  snap.AddGauge("membership.suspended", static_cast<std::int64_t>(SuspendedSet().count()));
  snap.AddGauge("membership.draining", static_cast<std::int64_t>(DrainingSet().count()));
  snap.AddGauge("membership.path_arena_bytes", static_cast<std::int64_t>(PathArenaBytes()));
}

std::size_t Membership::PathArenaBytes() const {
  std::lock_guard lock(mu_);
  return paths_.ArenaBytes();
}

std::size_t Membership::MemberCount() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& m : members_) n += m.has_value() ? 1 : 0;
  return n;
}

}  // namespace scalla::cms
