// Federation tier: the meta-manager that clusters the clusters.
//
// The paper's 64-ary B-tree composes: the same login / query / have /
// redirect exchange that lets a manager front 64 servers lets a
// meta-manager front 64 *clusters*. Independent clusters' head managers
// log in here with CmsLogin, their meta link an ordinary parent link
// (fed.meta sets the manager's parent); the meta resolves a path to the
// owning cluster with the same name-cache machinery one level up —
// ServerSet correction vectors keyed by cluster ID instead of server
// slot, CRC32 + Fibonacci hashing and window eviction reused verbatim
// from src/cms/ — and redirects the client to that cluster's head, which
// resolves to a data server as today. Request-rarely-respond also lifts
// one level: the meta floods CmsQuery to its heads and only owners
// answer, each with one CmsHave for its whole cluster.
//
// Cross-cluster replica preference uses locality weights: each cluster
// logs in with a distance weight (CmsLogin.locality) folded into its
// reported load, so a load-based selection prefers near clusters when
// several hold a file.
// A pcache proxy whose origin head is the meta acts as a federation edge
// cache with no new proxy code (its embedded client follows the two-hop
// redirect walk like any other client).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "cms/head_core.h"
#include "cms/types.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/tree_aggregator.h"
#include "sched/executor.h"

namespace scalla::fed {

struct MetaConfig {
  std::string name = "meta";
  net::NodeAddr addr = 0;
  cms::CmsConfig cms;
  // kLoad makes locality weights effective: a cluster's reported load is
  // locality * kLocalityScale + its heads' piggybacked load, so nearer
  // clusters win ties. Round-robin ignores locality (still correct).
  cms::SelectCriterion selection = cms::SelectCriterion::kLoad;
};

class MetaManager : public net::MessageSink {
 public:
  /// Load units one locality step is worth; keeps locality dominant over
  /// the (small) head load numbers without saturating the u32.
  static constexpr std::uint32_t kLocalityScale = 1000;

  MetaManager(MetaConfig config, sched::Executor& executor, net::Fabric& fabric);
  ~MetaManager() override;

  MetaManager(const MetaManager&) = delete;
  MetaManager& operator=(const MetaManager&) = delete;

  /// Starts maintenance timers (window tick, sweep, drop scan, heartbeat).
  void Start();
  void Stop();

  // net::MessageSink
  void OnMessage(net::NodeAddr from, proto::Message message) override;
  void OnPeerDown(net::NodeAddr peer) override;

  // ---- introspection (tests / benches / tools) ----
  const MetaConfig& config() const { return config_; }
  cms::Membership& membership() { return core_.membership(); }
  cms::LocationCache& cache() { return core_.cache(); }
  cms::Resolver& resolver() { return core_.resolver(); }
  net::NodeAddr HeadOfCluster(ServerSlot clusterId) const {
    return core_.AddrOfSlot(clusterId);
  }
  std::optional<ServerSlot> ClusterOfHead(net::NodeAddr addr) const {
    return core_.SlotOfAddr(addr);
  }

  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Local metrics under fed.* plus the cms component metrics — the same
  /// names a ScallaNode exports, so federation-level StatsQuery merges
  /// compose with cluster aggregates.
  obs::MetricsSnapshot SnapshotMetrics() const;

 private:
  // cms protocol (cluster heads)
  void HandleLogin(net::NodeAddr from, const proto::CmsLogin& m);

  // xrd protocol (clients): every meta answer is redirect / wait / error —
  // the meta serves no data and holds no namespace, only location bits.
  void HandleOpen(net::NodeAddr from, const proto::XrdOpen& m);

  std::uint32_t EffectiveLoad(ServerSlot clusterId, std::uint32_t headLoad) const;

  MetaConfig config_;
  net::Fabric& fabric_;

  obs::MetricsRegistry metrics_;
  cms::HeadCore core_;
  struct FedMetrics {
    obs::Counter& subscribes;       // cluster-head logins admitted
    obs::Counter& locates;          // client-visible resolutions served
    obs::Counter& redirects;        // redirects issued to cluster heads
    obs::Counter& waits;            // wait answers issued
    obs::Counter& notFound;         // global-namespace misses
    obs::Counter& clusterDeaths;    // heartbeat death declarations
    obs::Counter& statsQueries;
    explicit FedMetrics(obs::MetricsRegistry& r);
  };
  FedMetrics fm_;
  // Federation-level StatsQuery merge: each cluster head answers with its
  // already tree-aggregated snapshot, folded with our own fed.* view.
  obs::TreeAggregator stats_;

  std::array<std::uint32_t, kMaxServersPerSet> locality_{};  // per cluster
  bool started_ = false;
};

}  // namespace scalla::fed
