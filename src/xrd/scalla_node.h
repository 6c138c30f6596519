// A Scalla node: the xrootd data/redirector server paired with its cmsd,
// modeled as one object with two protocol roles (the paper's systems are
// "symmetric in that for each xrootd there is a corresponding cmsd").
//
// Roles (paper section II-B):
//   kManager    — a cluster head: accepts subordinate logins, resolves
//                 client requests, redirects clients downward. Given a
//                 parent (a federation meta-manager), it is a supervisor
//                 to that parent for its whole cluster. A meta-manager is
//                 a manager too, one whose members are cluster heads; it
//                 also answers FedLocate ("which cluster owns <path>?").
//   kSupervisor — a manager for its subtree AND a server to its parent:
//                 answers parent CmsQuery by resolving within its subtree,
//                 compressing multiple subordinate responses into a single
//                 "I have it"; redirects clients that reach it further down.
//   kServer     — a leaf: answers CmsQuery from its storage (oss), serves
//                 actual file I/O, stages MSS-resident files.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cms/head_core.h"
#include "cms/types.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/tree_aggregator.h"
#include "oss/oss.h"
#include "sched/executor.h"

namespace scalla::xrd {

// kProxy names a pcache::ProxyCacheNode in configuration files; ScallaNode
// itself is never constructed with it (the daemon branches on the role).
enum class NodeRole { kManager, kSupervisor, kServer, kProxy };

struct NodeConfig {
  NodeRole role = NodeRole::kServer;
  std::string name;              // stable identity, e.g. "server07"
  net::NodeAddr addr = 0;
  net::NodeAddr parent = 0;      // 0 = none (a manager outside a federation)
  // Additional redundant heads. "Clients first contact the logical head
  // node (which can be one of many)" and "every node in the cluster can
  // be replicated" (paper sections II-B1/II-B2): a subordinate logs into
  // ALL of its heads so each keeps an independent location view and any
  // of them can serve clients.
  std::vector<net::NodeAddr> extraParents;
  std::vector<std::string> exports{"/"};
  cms::CmsConfig cms;
  cms::SelectCriterion selection = cms::SelectCriterion::kRoundRobin;
  bool allowWrite = true;
  bool alwaysRespond = false;    // E06 baseline: emit explicit CmsNoHave
  net::NodeAddr cnsd = 0;        // Cluster Name Space daemon to notify (0 = none)
  Duration loginRetry = std::chrono::seconds(2);
  // Periodic load/space reports to parents (selection metrics, paper
  // section II-B3). Zero disables; tests may call ReportLoad directly.
  Duration loadReportInterval = Duration::zero();
  // Federation (a manager whose parent is a meta-manager): the manager
  // logs in under this cluster name, with this distance weight, and from
  // then on is a supervisor to the meta — it answers CmsQuery from its own
  // cluster and forwards CmsHave{newfile} and CmsGone upward.
  std::string clusterName;           // stable federation identity ("cern"; "" = name)
  std::uint32_t locality = 0;        // federation distance weight (lower = near)
  // Export fabric.* transport counters (global plus per-parent link
  // attribution) in SnapshotMetrics. Off by default: the fabric is shared
  // by every endpoint in-process, so only one node per process — the
  // daemon's — should fold its counters into a stats tree, or cluster
  // aggregates would multiply-count the same wire traffic.
  bool exportFabricStats = false;
};

class ScallaNode : public net::MessageSink {
 public:
  /// `storage` is required for kServer, ignored otherwise. The node does
  /// not own it (workloads pre-populate and inspect it).
  ScallaNode(NodeConfig config, sched::Executor& executor, net::Fabric& fabric,
             oss::Oss* storage);
  ~ScallaNode() override;

  ScallaNode(const ScallaNode&) = delete;
  ScallaNode& operator=(const ScallaNode&) = delete;

  /// Logs into the parent (if any) and starts maintenance timers.
  void Start();
  /// Cancels timers; the node stops answering (used before teardown).
  void Stop();

  // net::MessageSink
  void OnMessage(net::NodeAddr from, proto::Message message) override;
  void OnPeerDown(net::NodeAddr peer) override;

  // ---- introspection (tests / benches / examples) ----
  const NodeConfig& config() const { return config_; }
  /// Logged into every configured parent?
  bool LoggedIn() const;
  bool LoggedInTo(net::NodeAddr parent) const;
  const std::vector<net::NodeAddr>& Parents() const { return parents_; }
  cms::Membership& membership() { return core_.membership(); }
  cms::LocationCache& cache() { return core_.cache(); }
  cms::Resolver& resolver() { return core_.resolver(); }
  oss::Oss* storage() { return storage_; }
  net::NodeAddr AddrOfSlot(ServerSlot slot) const { return core_.AddrOfSlot(slot); }
  std::optional<ServerSlot> SlotOfAddr(net::NodeAddr addr) const {
    return core_.SlotOfAddr(addr);
  }

  /// The node's instrument registry (tests and embedders may add their own
  /// instruments; they ride along in every snapshot).
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Local point-in-time metrics: the node.* instruments plus every cms
  /// component's metrics under canonical dotted names ("cache.hits",
  /// "resolver.redirects", ...).
  obs::MetricsSnapshot SnapshotMetrics() const;

  /// Sends a load/space report to the parent (selection metrics).
  void ReportLoad(std::uint32_t load, std::uint64_t freeSpace);

  /// Multi-line human-readable status (role, membership, cache, resolver,
  /// response-queue counters) for operator tooling and logs.
  std::string DescribeStatus() const;

 private:
  bool IsHead() const { return config_.role != NodeRole::kServer; }

  // cms message handlers
  void HandleLogin(net::NodeAddr from, const proto::CmsLogin& m);
  void HandleLoginResp(net::NodeAddr from, const proto::CmsLoginResp& m);
  void HandleQuery(net::NodeAddr from, const proto::CmsQuery& m);
  void HandleHave(net::NodeAddr from, const proto::CmsHave& m);
  void HandleGone(net::NodeAddr from, const proto::CmsGone& m);
  void HandleLoad(net::NodeAddr from, const proto::CmsLoad& m);

  // liveness / membership administration
  void HandlePing(net::NodeAddr from, const proto::CmsPing& m);
  void HandleDeath(net::NodeAddr from, const proto::CmsDeath& m);
  void HandleDrain(net::NodeAddr from, const proto::CmsDrain& m);
  /// Current load/space numbers a pong or load report should carry.
  std::pair<std::uint32_t, std::uint64_t> CurrentLoad() const;

  // xrd message handlers
  void HandleOpen(net::NodeAddr from, const proto::XrdOpen& m);
  void HandleRead(net::NodeAddr from, const proto::XrdRead& m);
  void HandleReadV(net::NodeAddr from, const proto::XrdReadV& m);
  void HandleChecksum(net::NodeAddr from, const proto::XrdChecksum& m);
  void HandleWrite(net::NodeAddr from, const proto::XrdWrite& m);
  void HandleClose(net::NodeAddr from, const proto::XrdClose& m);
  void HandleStat(net::NodeAddr from, const proto::XrdStat& m);
  void HandleUnlink(net::NodeAddr from, const proto::XrdUnlink& m);
  void HandlePrepare(net::NodeAddr from, const proto::XrdPrepare& m);
  /// Locate options for a redirected request (an open, or a read-mode
  /// stat, unlink or checksum), counting a client's refresh.
  cms::LocateOptions HeadOptions(std::uint8_t mode, bool refresh, net::NodeAddr avoid);

  /// Answers a parent's CmsQuery from this subtree with a single CmsHave.
  void AnswerFromSubtree(net::NodeAddr from, const proto::CmsQuery& m);

  // role-specific pieces
  void LeafOpen(net::NodeAddr from, const proto::XrdOpen& m);
  void SendLogins();
  void SendLoginTo(net::NodeAddr parent);
  bool IsParent(net::NodeAddr addr) const;
  void NotifyParentHave(const std::string& path, bool pending);

  NodeConfig config_;
  sched::Executor& executor_;
  net::Fabric& fabric_;
  oss::Oss* storage_;

  // Instruments the hot handlers bump. The registry owns them; the struct
  // caches references so handlers pay one relaxed atomic add per event.
  obs::MetricsRegistry metrics_;
  cms::HeadCore core_;  // idle below a head, bar the window tick
  struct NodeMetrics {
    obs::Counter& opensServed;
    obs::Counter& reads;
    obs::Counter& writes;
    obs::Counter& queriesAnswered;
    obs::Counter& queriesSilent;
    obs::Counter& redirectsIssued;
    obs::Counter& waitsIssued;
    obs::Counter& stagesStarted;
    obs::Counter& creates;
    obs::Counter& loginsAccepted;  // subordinate logins this head admitted
    obs::Counter& loginsSent;      // login attempts toward parents
    obs::Counter& refreshes;       // walks (open, stat, unlink, checksum) asking a refresh
    obs::Counter& statsQueries;    // StatsQuery frames served
    explicit NodeMetrics(obs::MetricsRegistry& r);
  };
  NodeMetrics nm_;
  obs::TreeAggregator stats_;

  bool started_ = false;
  std::vector<net::NodeAddr> parents_;  // config_.parent + extraParents
  std::unordered_map<net::NodeAddr, ServerSlot> slotAtParent_;  // logged-in only

  // leaf open-file table
  struct OpenFile {
    std::string path;
    cms::AccessMode mode = cms::AccessMode::kRead;
  };
  std::unordered_map<std::uint64_t, OpenFile> openFiles_;
  std::uint64_t nextHandle_ = 1;

  sched::TimerId loginTimer_ = sched::kInvalidTimer;
  sched::TimerId loadTimer_ = sched::kInvalidTimer;
  // Last load/space numbers this node reported upward; pongs echo them so
  // parent selection metrics stay fresh between CmsLoad reports.
  std::uint32_t lastLoad_ = 0;
  std::uint64_t lastFree_ = 0;
};

}  // namespace scalla::xrd
