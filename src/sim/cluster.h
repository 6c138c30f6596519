// Cluster harness: builds a complete Scalla deployment — the 64-ary tree
// of manager / supervisors / servers that PlanCluster derives from a
// ClusterSpec (Figure 1), per-leaf storage, clients — inside one
// discrete-event simulation, and provides synchronous driving helpers for
// tests, benchmarks and examples.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/scalla_client.h"
#include "cnsd/cns_daemon.h"
#include "oss/mem_oss.h"
#include "oss/mss_oss.h"
#include "pcache/proxy_node.h"
#include "sim/cluster_plan.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
#include "util/result.h"
#include "xrd/scalla_node.h"

namespace scalla::sim {

class SimCluster {
 public:
  explicit SimCluster(const ClusterSpec& spec);
  /// Builds the cluster on a shared engine/fabric (federation harness):
  /// node addresses are allocated starting at `firstAddr`, so several
  /// clusters can coexist on one fabric with disjoint address bands.
  SimCluster(const ClusterSpec& spec, EventEngine& engine, SimFabric& fabric,
             net::NodeAddr firstAddr);
  ~SimCluster();

  /// Starts every node and settles logins (virtual time advances a hair).
  void Start();

  EventEngine& engine() { return *engine_; }
  SimFabric& fabric() { return *fabric_; }
  xrd::ScallaNode& head() { return *managers_[0]; }
  std::size_t ManagerCount() const { return managers_.size(); }
  xrd::ScallaNode& manager(std::size_t i) { return *managers_[i]; }
  /// Crashes / restores a redundant manager (head failover testing).
  void CrashManager(std::size_t i);
  void RestoreManager(std::size_t i);

  std::size_t ServerCount() const { return leaves_.size(); }
  xrd::ScallaNode& server(std::size_t i) { return *leaves_[i]; }
  oss::MemOss& storage(std::size_t i) { return *storages_[i]; }
  oss::MssOss* mssStorage(std::size_t i);
  std::size_t SupervisorCount() const { return supervisors_.size(); }
  xrd::ScallaNode& supervisor(std::size_t i) { return *supervisors_[i]; }

  /// Tree depth in redirection hops from the head to a leaf (1 when the
  /// manager's children are the servers).
  int Depth() const { return plan_.depth; }

  /// Creates a client endpoint attached to the head.
  client::ScallaClient& NewClient();

  /// The proxy cache tier (spec.withProxy), or nullptr.
  pcache::ProxyCacheNode* proxy() { return proxy_.get(); }
  /// Creates a client whose head IS the proxy (spec.withProxy required).
  client::ScallaClient& NewProxyClient();

  /// The namespace daemon (spec.withCnsd), or nullptr.
  cnsd::CnsDaemon* cns() { return cns_.get(); }
  /// Drives a client List through the cnsd to completion.
  Result<std::vector<std::string>> ListAndWait(client::ScallaClient& c,
                                               const std::string& prefix);

  /// Seeds `path` with `data` on leaf `i` (bypassing the protocol, like
  /// files pre-placed by a transfer system).
  void PlaceFile(std::size_t i, const std::string& path, std::string data);

  // ---- synchronous driving helpers (run the engine until completion) ----
  client::OpenOutcome OpenAndWait(client::ScallaClient& c, const std::string& path,
                                  cms::AccessMode mode, bool create,
                                  Duration timeout = std::chrono::seconds(120));
  Result<std::string> ReadAll(client::ScallaClient& c, const std::string& path);
  Result<void> PutFile(client::ScallaClient& c, const std::string& path,
                       std::string data);
  Result<void> CloseAndWait(client::ScallaClient& c, const client::FileRef& file,
                            Duration timeout = std::chrono::seconds(30));
  Result<void> UnlinkAndWait(client::ScallaClient& c, const std::string& path);
  Result<void> PrepareAndWait(client::ScallaClient& c,
                              const std::vector<std::string>& paths,
                              cms::AccessMode mode);

  /// Tree-aggregated metrics via the observability protocol: issues a
  /// StatsQuery from `c` (or a throwaway client when null) against the
  /// current head and drives the engine until the reply lands.
  client::ScallaClient::ClusterStats ClusterStats(client::ScallaClient* c = nullptr);

  /// Crashes leaf `i`: drops it from the fabric so peers see it down.
  void CrashServer(std::size_t i);
  /// Restarts leaf `i` (it re-logs-in; run the engine to settle).
  void RestartServer(std::size_t i);
  /// Wedges leaf `i`: the process hangs with its connections intact, so
  /// nobody gets OnPeerDown — only the heartbeat notices.
  void WedgeServer(std::size_t i);
  /// Un-wedges leaf `i`; the head's next reconnect invitation restores it.
  void UnwedgeServer(std::size_t i);

  /// Drives a client Drain/restore through the head to completion.
  Result<proto::CmsDrainResp> DrainAndWait(client::ScallaClient& c,
                                           const std::string& server,
                                           bool restore = false);

  /// Advances virtual time by `d`, processing periodic timers on the way.
  void RunFor(Duration d);

  const ClusterSpec& spec() const { return spec_; }

 private:
  void Build(net::NodeAddr firstAddr);
  /// Starts a client call with `begin(callback)` and runs the engine until
  /// the callback delivers its arguments as a T, or `timeout` of virtual
  /// time passes (nullopt).
  template <typename T, typename Begin>
  std::optional<T> Await(Begin begin, Duration timeout);
  xrd::ScallaNode* FindNode(net::NodeAddr addr);

  ClusterSpec spec_;
  // Standalone clusters own their engine/fabric; federated ones borrow a
  // shared pair from the SimFederation harness.
  std::unique_ptr<EventEngine> ownedEngine_;
  std::unique_ptr<SimFabric> ownedFabric_;
  EventEngine* engine_ = nullptr;
  SimFabric* fabric_ = nullptr;
  ClusterPlan plan_;

  std::unique_ptr<cnsd::CnsDaemon> cns_;
  std::vector<std::unique_ptr<xrd::ScallaNode>> managers_;
  std::vector<std::unique_ptr<xrd::ScallaNode>> supervisors_;
  std::vector<std::unique_ptr<xrd::ScallaNode>> leaves_;
  // Declared before proxy_: the disk tier must outlive the proxy that
  // spills into it.
  std::unique_ptr<oss::MemOss> proxyDisk_;
  std::unique_ptr<pcache::ProxyCacheNode> proxy_;
  std::vector<std::unique_ptr<oss::MemOss>> storages_;
  std::vector<std::unique_ptr<client::ScallaClient>> clients_;
};

}  // namespace scalla::sim
