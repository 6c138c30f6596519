// The cluster plan: the one place a ClusterSpec becomes a Scalla tree.
// PlanCluster derives every node's configuration (address, name, role,
// parents, exports, cms settings) without creating anything, so the
// discrete-event host (SimCluster) and the real-socket host (TcpCluster)
// build the same 64-ary tree of managers, supervisors and data servers
// (Figure 1) from one spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "client/scalla_client.h"
#include "oss/mss_oss.h"
#include "pcache/proxy_node.h"
#include "sim/sim_fabric.h"
#include "xrd/scalla_node.h"

namespace scalla::sim {

struct ClusterSpec {
  int servers = 4;   // leaf data servers
  int managers = 1;  // redundant logical heads ("which can be one of many")
  int fanout = kMaxServersPerSet;  // children per head (64 in the paper)
  std::vector<std::string> exports{"/store"};
  cms::CmsConfig cms;
  LatencyModel latency;  // the simulator's link model; TcpCluster ignores it
  cms::SelectCriterion selection = cms::SelectCriterion::kRoundRobin;
  bool alwaysRespond = false;  // E06 baseline protocol
  bool withMss = false;        // leaves get a staging-capable backend
  oss::MssConfig mss;
  bool withCnsd = false;       // run a Cluster Name Space daemon
  // Proxy cache tier (pcache): one caching proxy fronting the head.
  bool withProxy = false;
  pcache::BlockCacheConfig proxyCache;   // DRAM tier
  // Disk tier (0 disables): simulated with a SimCluster-owned MemOss, so
  // tests and benches exercise spill/promote/ghost admission without
  // touching the host file system.
  std::uint64_t proxyDiskCapacity = 0;
  int proxyReadAhead = 0;
  // Federation: when `meta` is set it is every manager's parent, and the
  // managers log into that meta-manager under `clusterName` with the given
  // locality weight.
  net::NodeAddr meta = 0;
  std::string clusterName;
  std::uint32_t locality = 0;
};

struct ClusterPlan {
  net::NodeAddr cnsd = 0;  // the namespace daemon (spec.withCnsd), else 0
  // Managers, then supervisors and leaves depth-first, in address order:
  // the order in which a host creates and registers them.
  std::vector<xrd::NodeConfig> nodes;
  // The proxy (spec.withProxy); the host supplies diskOss for a disk tier.
  std::optional<pcache::ProxyCacheConfig> proxy;
  client::ClientConfig client;  // a client of the heads, addr unset
  int depth = 0;                // redirection hops from the head to the deepest leaf
  net::NodeAddr nextAddr = 0;   // the first address after the plan (clients)
};

/// Plans `spec` with addresses from `firstAddr` on: the cnsd, then the
/// managers, then supervisors and leaves depth-first, then the proxy.
ClusterPlan PlanCluster(const ClusterSpec& spec, net::NodeAddr firstAddr);

}  // namespace scalla::sim
