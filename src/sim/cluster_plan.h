// The cluster plan: the one place a ClusterSpec becomes a Scalla tree.
// PlanCluster derives every node's configuration (address, name, role,
// parents, exports, cms settings) without creating anything, so the
// discrete-event host (SimCluster) and the real-socket host (TcpCluster)
// build the same 64-ary tree of managers, supervisors and data servers
// (Figure 1) from one spec. A federation is one more level of that tree:
// with `clusters` set, a meta-manager heads it and every member cluster's
// heads log into the meta as their parent.
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
  // Federation: 0 plans one cluster. N >= 1 puts a meta-manager (a
  // manager named "meta", kLoad selection) at the top, over N member
  // clusters "cluster0".."cluster<N-1>", each planned from the rest of this
  // spec, whose heads log into the meta with localities[c] as their
  // distance weight (missing entries are 0 = nearest).
  int clusters = 0;
  std::vector<std::uint32_t> localities;
};

struct ClusterPlan {
  net::NodeAddr cnsd = 0;  // the namespace daemon (spec.withCnsd), else 0
  // In address order, the order in which a host creates and registers
  // them: the meta (spec.clusters > 0), then per cluster its managers,
  // then its supervisors and leaves depth-first.
  std::vector<xrd::NodeConfig> nodes;
  // The proxy (spec.withProxy); the host supplies diskOss for a disk tier.
  std::optional<pcache::ProxyCacheConfig> proxy;
  client::ClientConfig client;  // a client of the top heads, addr unset
  int depth = 0;                // redirection hops from the top head to the deepest leaf
  net::NodeAddr nextAddr = 0;   // the first address after the plan (clients)
};

/// Plans `spec` with addresses from 1 on: the cnsd, the meta, each
/// cluster's managers, supervisors and leaves, then the proxy. So a host
/// that keeps managers and leaves in plan order finds the meta at
/// manager 0, cluster c's first head at manager 1 + c * managers and its
/// leaves from server c * servers on.
ClusterPlan PlanCluster(const ClusterSpec& spec);

}  // namespace scalla::sim
