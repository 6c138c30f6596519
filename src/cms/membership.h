// Cluster membership for one cmsd: assigns the 0..63 server slots that map
// onto V_h/V_p/V_q bits, tracks online/offline state, and implements the
// paper's three-phase lifecycle (section III-A4):
//   disconnect  -> server marked offline but still a member ("the hope is
//                  that the server is encountering a transient problem");
//   drop        -> after a configurable delay the server is removed from
//                  every V_m and its slot freed;
//   reconnect   -> within the drop window and with identical exports the
//                  server resumes its slot with no correction cost; with
//                  different exports (or after a drop) it is a new server,
//                  which bumps N_c so cached objects learn about it.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cms/correction_state.h"
#include "cms/path_table.h"
#include "cms/types.h"
#include "obs/snapshot.h"
#include "util/clock.h"

namespace scalla::cms {

struct MemberInfo {
  std::string name;   // stable identity, e.g. "dataserver07:1094"
  ServerSlot slot = -1;
  bool online = false;
  bool allowWrite = true;
  bool isSupervisor = false;  // subordinate is itself a cluster head
  // Distance weight from its login (CmsLogin.locality; lower = near). At a
  // meta-manager it lets load selection prefer near clusters; it never
  // enters `load`, so suspension thresholds see only the reported load.
  std::uint32_t locality = 0;
  TimePoint disconnectTime{};
  // Selection metrics, refreshed by load reports.
  std::uint32_t load = 0;           // abstract load units (lower is better)
  std::uint64_t freeSpace = 0;      // bytes available
  std::uint64_t selectionCount = 0; // times chosen by the selector
  // Liveness / availability state.
  int missedPings = 0;       // consecutive unanswered heartbeat probes
  bool suspended = false;    // overloaded: cached but not selectable
  bool draining = false;     // operator drain: cached but not selectable
};

class Membership {
 public:
  Membership(const CmsConfig& config, util::Clock& clock);

  struct LoginResult {
    ServerSlot slot = -1;
    bool isNew = false;        // treated as a new server (N_c bumped)
    bool reconnected = false;  // resumed a live slot
  };

  /// Registers `name` with its export prefixes. Returns std::nullopt when
  /// the set is full (64 members) — the caller should direct the server to
  /// a supervisor instead. Registration is deliberately light: only path
  /// prefixes are recorded, never file manifests (section V). `locality`
  /// is the member's distance weight (MemberInfo::locality).
  std::optional<LoginResult> Login(const std::string& name,
                                   const std::vector<std::string>& exports,
                                   bool allowWrite = true, bool isSupervisor = false,
                                   std::uint32_t locality = 0);

  /// Marks the member offline; membership is retained until DropExpired.
  void Disconnect(ServerSlot slot);

  /// Heartbeat liveness (one call per cms.ping tick). Every online member
  /// is charged one missed probe (the charge is repaid by OnPong); members
  /// reaching the miss limit are declared dead in place. Offline members
  /// still within the drop window are listed for a reconnect invitation.
  struct HeartbeatOutcome {
    std::vector<ServerSlot> ping;       // online members to probe
    std::vector<ServerSlot> reconnect;  // offline members to invite back
    std::vector<std::pair<ServerSlot, std::string>> died;  // declared dead now
  };
  HeartbeatOutcome HeartbeatTick();

  /// Heartbeat answer from `slot`: clears its missed-probe count.
  void OnPong(ServerSlot slot);

  /// Declares an online member dead: offline immediately (no drop — the
  /// slot and exports are kept for a cheap rejoin) and its correction
  /// counter touched, so every cached location object lazily sheds the
  /// server's V_h/V_p bits into V_q on next fetch, exactly like CmsGone
  /// but for all paths in O(1). Returns false if not an online member.
  bool DeclareDead(ServerSlot slot);

  /// Operator drain (restore=false readmits). Returns false for non-members.
  bool SetDraining(ServerSlot slot, bool draining);

  /// Drops members offline for longer than dropDelay. Returns their slots.
  std::vector<ServerSlot> DropExpired();

  /// Forces an immediate drop (testing / administrative removal).
  bool Drop(ServerSlot slot);

  ServerSet OnlineSet() const;
  ServerSet OfflineSet() const;  // members currently unreachable
  ServerSet MemberSet() const;
  /// Online and neither suspended nor draining — the set SelectionPolicy
  /// may choose from. Suspended/drained members stay in OnlineSet (they
  /// keep answering queries and holding cache bits).
  ServerSet SelectableSet() const;
  ServerSet SuspendedSet() const;
  ServerSet DrainingSet() const;
  bool IsSelectable(ServerSlot slot) const;

  std::optional<MemberInfo> InfoOf(ServerSlot slot) const;
  std::optional<ServerSlot> SlotOf(const std::string& name) const;

  void ReportLoad(ServerSlot slot, std::uint32_t load, std::uint64_t freeSpace);
  /// Load report routed by stable identity: survives a re-login that
  /// assigned the server a different slot (a stale slot id would credit
  /// the report to whoever holds that slot now). Returns the slot the
  /// report landed on, if any.
  std::optional<ServerSlot> ReportLoadByName(const std::string& name,
                                             std::uint32_t load,
                                             std::uint64_t freeSpace);
  void CountSelection(ServerSlot slot);

  /// Monotonic liveness counters, surfaced as membership.* metrics.
  struct LivenessStats {
    std::uint64_t deaths = 0;    // heartbeat declarations
    std::uint64_t rejoins = 0;   // offline member logged back in
    std::uint64_t suspends = 0;  // load crossed cms.suspendload
    std::uint64_t resumes = 0;   // load fell back to cms.resumeload
    std::uint64_t drains = 0;    // operator drains applied
  };
  LivenessStats GetLivenessStats() const;
  /// Writes the membership.* metrics (liveness counters, suspended and
  /// draining gauges, export-prefix arena bytes).
  void ExportMetrics(obs::MetricsSnapshot& snap) const;

  /// Bytes held by the export-prefix string arena backing PathTable,
  /// surfaced as the membership.path_arena_bytes gauge.
  std::size_t PathArenaBytes() const;

  /// V_m for a path (longest matching export prefix).
  ServerSet EligibleFor(std::string_view path) const;

  const CorrectionState& corrections() const { return corrections_; }
  CorrectionState& corrections() { return corrections_; }

  std::size_t MemberCount() const;

 private:
  ServerSlot FindFreeSlotLocked() const;
  void DropLocked(ServerSlot slot);
  void ApplyLoadLocked(MemberInfo& m, std::uint32_t load, std::uint64_t freeSpace);

  const CmsConfig config_;
  util::Clock& clock_;

  mutable std::mutex mu_;
  std::array<std::optional<MemberInfo>, kMaxServersPerSet> members_;
  PathTable paths_;
  CorrectionState corrections_;
  LivenessStats liveness_;
};

}  // namespace scalla::cms
