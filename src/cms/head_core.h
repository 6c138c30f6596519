// The core of every node that fronts a set of subordinates: a manager or
// supervisor over its servers, and a meta-manager (a manager whose
// members are cluster heads). The paper's tree composes (section II-B):
// each level runs the same login -> query -> have -> redirect exchange, so
// one object owns the six cms components, the slot <-> address maps, query
// fan-out, the heartbeat and its death notices, the create-target choice
// and the locate -> answer step. Nothing here asks which level it serves:
// a member's login locality is data (MemberInfo::locality), and a death
// notice reaches only supervisor members, of which a meta has none.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cms/location_cache.h"
#include "cms/maintenance.h"
#include "cms/membership.h"
#include "cms/resolver.h"
#include "cms/response_queue.h"
#include "cms/selection.h"
#include "cms/types.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "sched/executor.h"

namespace scalla::cms {

class HeadCore {
 public:
  /// Which of the owner's counters one locate -> answer bumps (null: none).
  struct Tally {
    obs::Counter* redirects = nullptr;
    obs::Counter* waits = nullptr;
    obs::Counter* notFound = nullptr;
  };

  /// `name` and `addr` identify the owner in logs and as the sender of
  /// every frame; `metrics` receives the heartbeat counters
  /// (node.pings_sent, node.pongs_received).
  HeadCore(const CmsConfig& config, SelectCriterion criterion, std::string name,
           net::NodeAddr addr, sched::Executor& executor, net::Fabric& fabric,
           obs::MetricsRegistry& metrics);

  HeadCore(const HeadCore&) = delete;
  HeadCore& operator=(const HeadCore&) = delete;

  /// Starts the window tick; with `headDuties`, also the expired-member
  /// drop scan and the heartbeat.
  void Start(bool headDuties);
  void Stop();

  Membership& membership() { return membership_; }
  const Membership& membership() const { return membership_; }
  LocationCache& cache() { return cache_; }
  const LocationCache& cache() const { return cache_; }
  const FastResponseQueue& respq() const { return respq_; }
  Resolver& resolver() { return resolver_; }
  const Resolver& resolver() const { return resolver_; }

  net::NodeAddr AddrOfSlot(ServerSlot slot) const;
  std::optional<ServerSlot> SlotOfAddr(net::NodeAddr addr) const;
  /// Addresses of every online subordinate (StatsQuery fan-out).
  std::vector<net::NodeAddr> OnlineAddrs() const;

  /// Logs the subordinate at `from` in; std::nullopt when the set is full.
  std::optional<Membership::LoginResult> Admit(net::NodeAddr from, const proto::CmsLogin& m);
  /// Marks a subordinate offline when its connection breaks.
  void OnPeerDown(net::NodeAddr peer);
  /// A heartbeat answer; its piggybacked load is stored as reported.
  void OnPong(net::NodeAddr from, const proto::CmsPong& m);
  /// Fans a death/drain notice to every online supervisor subordinate so
  /// the whole subtree repairs its view. Returns targets reached.
  int FanToSupervisors(const proto::Message& notice);
  /// A subordinate's "I have it" / "it is gone". False when `from` is not
  /// a subordinate (the frame is ignored).
  bool OnHave(net::NodeAddr from, const std::string& path, std::uint32_t hash,
              bool pending, bool allowWrite);
  bool OnGone(net::NodeAddr from, const std::string& path);

  /// Locate options for a wire access mode, refresh flag and the address
  /// of a node the client wants avoided (0 = none).
  LocateOptions OptionsFor(std::uint8_t mode, bool refresh, net::NodeAddr avoid) const;
  /// A writable, selectable subordinate for a new file, avoiding `avoid`
  /// when another candidate exists; -1 when none qualifies.
  ServerSlot ChooseCreateTarget(const std::string& path, ServerSlot avoid);
  /// Parallel prepare (section III-B2): one background locate per path,
  /// so a client sees at most one full delay however many files it names.
  void Prefetch(const std::vector<std::string>& paths, std::uint8_t mode);

  /// Resolves `path` and answers `client` with a Resp (an xrd response or
  /// FedRedirect) carrying a redirect, a wait or an error. With `create`,
  /// a confirmed miss redirects to ChooseCreateTarget instead of failing.
  template <typename Resp>
  void Answer(net::NodeAddr client, std::uint64_t reqId, const std::string& path,
              const LocateOptions& opts, Tally tally, bool create = false);

  /// Writes the cache.*, resolver.*, respq.*, maintenance.* and
  /// membership.* metrics of the six components.
  void ExportMetrics(obs::MetricsSnapshot& snap) const;

 private:
  void HeartbeatTick();
  void SendQueryDown(ServerSet targets, const std::string& path, std::uint32_t hash,
                     AccessMode mode);

  const CmsConfig config_;
  const std::string name_;
  const net::NodeAddr addr_;
  sched::Executor& executor_;
  net::Fabric& fabric_;

  Membership membership_;
  LocationCache cache_;
  FastResponseQueue respq_;
  SelectionPolicy selection_;
  Resolver resolver_;
  MaintenanceDriver maintenance_;

  obs::Counter& pingsSent_;
  obs::Counter& pongsReceived_;

  std::array<net::NodeAddr, kMaxServersPerSet> slotAddr_{};
  std::unordered_map<net::NodeAddr, ServerSlot> addrSlot_;
  std::uint64_t pingSeq_ = 0;
  sched::TimerId pingTimer_ = sched::kInvalidTimer;
};

template <typename Resp>
void HeadCore::Answer(net::NodeAddr client, std::uint64_t reqId, const std::string& path,
                      const LocateOptions& opts, Tally tally, bool create) {
  resolver_.Locate(
      path, opts,
      [this, client, reqId, tally, create, avoid = opts.avoid,
       createPath = create ? path : std::string()](const LocateResult& r) {
        const auto bump = [](obs::Counter* c) {
          if (c != nullptr) c->Inc();
        };
        Resp out;
        out.reqId = reqId;
        ServerSlot target = -1;
        switch (r.status) {
          case LocateStatus::kRedirect:
            target = r.server;
            break;
          case LocateStatus::kWait:
            out.status = proto::XrdStatus::kWait;
            out.waitNs = r.wait.count();
            bump(tally.waits);
            break;
          case LocateStatus::kRetry:
            out.status = proto::XrdStatus::kError;
            out.err = proto::XrdErr::kStale;
            break;
          case LocateStatus::kNotFound:
            out.status = proto::XrdStatus::kError;
            if (create) {
              // The full delay has confirmed non-existence: place the new
              // file (kNoSpace stands unless a target is found). The choice
              // is cached as pending (V_p), so a read that reaches this
              // head before the target's CmsHave{newfile} is sent there
              // too; the have turns it into V_h, and a target that refuses
              // the create loses it to the client's refresh + avoid.
              target = ChooseCreateTarget(createPath, avoid);
              if (target >= 0) {
                resolver_.OnHave(createPath, LocationCache::HashOf(createPath), target,
                                 /*pending=*/true, /*allowWrite=*/true);
              }
              out.err = proto::XrdErr::kNoSpace;
            } else {
              out.err = proto::XrdErr::kNotFound;
              bump(tally.notFound);
            }
            break;
        }
        if (target >= 0) {
          out.status = proto::XrdStatus::kRedirect;
          out.err = proto::XrdErr::kNone;
          if constexpr (std::is_same_v<Resp, proto::FedRedirect>) {
            out.clusterId = target;
            out.headAddr = AddrOfSlot(target);
            if (const auto info = membership_.InfoOf(target)) out.cluster = info->name;
          } else {
            out.redirectNode = AddrOfSlot(target);
          }
          bump(tally.redirects);
        }
        fabric_.Send(addr_, client, std::move(out));
      });
}

}  // namespace scalla::cms
