// Federation tier: the meta-manager that clusters the clusters.
//
// The paper's 64-ary B-tree composes: the same subscribe / locate /
// redirect machinery that lets a manager front 64 servers lets a
// meta-manager front 64 *clusters*. Independent clusters' head managers
// subscribe here (FedSubscribe) exactly as servers log into a manager;
// the meta resolves a path to the owning cluster with the same
// name-cache machinery one level up — ServerSet correction vectors keyed
// by cluster ID instead of server slot, CRC32 + Fibonacci hashing and
// window eviction reused verbatim from src/cms/ — and redirects the
// client to that cluster's head, which resolves to a data server as
// today. Request-rarely-respond also lifts one level: the meta floods
// FedQuery to subscribed heads and only owners answer (FedHave).
//
// Cross-cluster replica preference uses locality weights: each cluster
// subscribes with a distance weight folded into its reported load, so a
// load-based selection prefers near clusters when several hold a file.
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
  bool startTimers = true;
  Duration statsTimeout = std::chrono::seconds(2);
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
  // fed protocol (cluster heads)
  void HandleSubscribe(net::NodeAddr from, const proto::FedSubscribe& m);
  void HandleHave(net::NodeAddr from, const proto::FedHave& m);
  void HandleGone(net::NodeAddr from, const proto::FedGone& m);
  void HandleLocate(net::NodeAddr from, const proto::FedLocate& m);

  // xrd protocol (clients): every meta answer is redirect / wait / error —
  // the meta serves no data and holds no namespace, only location bits.
  void HandleOpen(net::NodeAddr from, const proto::XrdOpen& m);

  std::uint32_t EffectiveLoad(ServerSlot clusterId, std::uint32_t headLoad) const;

  MetaConfig config_;
  net::Fabric& fabric_;

  obs::MetricsRegistry metrics_;
  cms::HeadCore core_;
  struct FedMetrics {
    obs::Counter& subscribes;       // FedSubscribe frames admitted
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
