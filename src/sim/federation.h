// Federation harness: several independent SimClusters sharing one
// discrete-event engine and fabric, fronted by a meta-manager that
// clusters the clusters: a manager-role xrd::ScallaNode whose members are
// the clusters' heads. Clients built here hold ONLY the meta-head address
// and reach files in any member cluster through the two-hop redirect walk
// (meta -> cluster head -> data server).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/scalla_client.h"
#include "pcache/proxy_node.h"
#include "sim/cluster.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
#include "util/result.h"
#include "xrd/scalla_node.h"

namespace scalla::sim {

/// The meta-manager's default configuration: a manager named "meta" whose
/// load selection lets FederationSpec::localities steer cross-cluster
/// replica choice (round-robin would ignore them, and still be correct).
xrd::NodeConfig DefaultMetaConfig();

struct FederationSpec {
  int clusters = 2;
  // Template applied to every member cluster (servers, exports, cms, ...).
  // meta / clusterName / locality are filled in per cluster by the harness.
  ClusterSpec cluster;
  // The meta-manager's node configuration (a manager; address 1 unless
  // set). Its selection defaults to kLoad, see DefaultMetaConfig.
  xrd::NodeConfig meta = DefaultMetaConfig();
  // Per-cluster locality weight (distance from the meta's site); missing
  // entries default to 0 (= nearest).
  std::vector<std::uint32_t> localities;
  // Federation edge cache: a pcache proxy whose origin head IS the meta.
  bool withEdgeProxy = false;
};

class SimFederation {
 public:
  explicit SimFederation(const FederationSpec& spec);
  ~SimFederation();

  /// Starts the meta and every cluster, and settles every login.
  void Start();

  EventEngine& engine() { return engine_; }
  SimFabric& fabric() { return fabric_; }
  xrd::ScallaNode& meta() { return *meta_; }
  std::size_t ClusterCount() const { return clusters_.size(); }
  SimCluster& cluster(std::size_t i) { return *clusters_[i]; }
  pcache::ProxyCacheNode* edgeProxy() { return proxy_.get(); }

  /// A client that knows only the meta-head address.
  client::ScallaClient& NewClient();
  /// A client whose head is the federation edge proxy (withEdgeProxy).
  client::ScallaClient& NewEdgeClient();

  /// Seeds `path` on leaf `leaf` of cluster `c` (pre-placed file).
  void PlaceFile(std::size_t c, std::size_t leaf, const std::string& path,
                 std::string data);

  // Synchronous driving helpers (shared engine, any member cluster's
  // helpers drive the whole federation — delegate to cluster 0).
  client::OpenOutcome OpenAndWait(client::ScallaClient& c, const std::string& path,
                                  cms::AccessMode mode, bool create,
                                  Duration timeout = std::chrono::seconds(120));
  Result<std::string> ReadAll(client::ScallaClient& c, const std::string& path);
  Result<void> PutFile(client::ScallaClient& c, const std::string& path,
                       std::string data);
  client::ScallaClient::ClusterStats FederationStats(client::ScallaClient* c = nullptr);

  /// Partitions cluster `i` from the meta: traffic between the meta and
  /// every head of that cluster is silently dropped in both directions —
  /// nobody gets OnPeerDown, so only the federation heartbeat notices
  /// (DeclareDead -> O(1) correction-vector shed).
  void PartitionCluster(std::size_t i);
  /// Heals the partition; the meta's reconnect invitation makes the
  /// cluster head log in again on the next heartbeat tick.
  void RejoinCluster(std::size_t i);

  /// Advances virtual time by `d`, processing periodic timers on the way.
  void RunFor(Duration d);

  const FederationSpec& spec() const { return spec_; }

 private:
  FederationSpec spec_;
  EventEngine engine_;
  SimFabric fabric_;
  std::unique_ptr<xrd::ScallaNode> meta_;
  std::vector<std::unique_ptr<SimCluster>> clusters_;
  std::unique_ptr<pcache::ProxyCacheNode> proxy_;
  std::vector<std::unique_ptr<client::ScallaClient>> clients_;
  net::NodeAddr nextClientAddr_ = 100;  // below the 1000-per-cluster bands
};

}  // namespace scalla::sim
