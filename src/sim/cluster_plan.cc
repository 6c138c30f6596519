#include "sim/cluster_plan.h"

#include <algorithm>
#include <cassert>

namespace scalla::sim {
namespace {

struct Planner {
  const ClusterSpec& spec;
  ClusterPlan& plan;
  net::NodeAddr next;
  int leaves = 0;
  int supervisors = 0;

  xrd::NodeConfig& Add(xrd::NodeRole role, std::string name) {
    xrd::NodeConfig& cfg = plan.nodes.emplace_back();
    cfg.role = role;
    cfg.name = std::move(name);
    cfg.addr = next++;
    cfg.exports = spec.exports;
    cfg.cms = spec.cms;
    cfg.selection = spec.selection;
    cfg.alwaysRespond = spec.alwaysRespond;
    return cfg;
  }

  // Splits `nServers` across at most `fanout` children of `parents`. A
  // child with one server is a leaf; a larger share becomes a supervisor
  // subtree. Returns the deepest child's depth below `parents`.
  int Children(const std::vector<net::NodeAddr>& parents, int nServers) {
    int depth = 0;
    const int children = std::min(spec.fanout, nServers);
    for (int c = 0; c < children; ++c) {
      const int share = (nServers + children - c - 1) / (children - c);
      depth = std::max(depth, Subtree(parents, share));
      nServers -= share;
    }
    return depth;
  }

  int Subtree(const std::vector<net::NodeAddr>& parents, int nServers) {
    const bool leaf = nServers == 1;
    xrd::NodeConfig& cfg =
        leaf ? Add(xrd::NodeRole::kServer, "server" + std::to_string(leaves++))
             : Add(xrd::NodeRole::kSupervisor, "sup" + std::to_string(supervisors++));
    cfg.parent = parents.front();
    cfg.extraParents.assign(parents.begin() + 1, parents.end());
    if (leaf) {
      cfg.cnsd = plan.cnsd;  // leaves publish namespace events (0 = none)
      return 0;
    }
    const net::NodeAddr addr = cfg.addr;  // cfg dangles once children are added
    return Children({addr}, nServers) + 1;
  }
};

}  // namespace

ClusterPlan PlanCluster(const ClusterSpec& spec, net::NodeAddr firstAddr) {
  assert(spec.servers >= 1);
  assert(spec.managers >= 1);
  assert(spec.fanout >= 2 && spec.fanout <= kMaxServersPerSet);
  ClusterPlan plan;
  Planner planner{spec, plan, firstAddr};
  if (spec.withCnsd) plan.cnsd = planner.next++;

  // The logical head: one manager, or several redundant ones that every
  // top-level subordinate logs into.
  std::vector<net::NodeAddr> heads;
  for (int m = 0; m < spec.managers; ++m) {
    xrd::NodeConfig& cfg = planner.Add(xrd::NodeRole::kManager, "manager" + std::to_string(m));
    cfg.parent = spec.meta;
    cfg.clusterName = spec.clusterName;
    cfg.locality = spec.locality;
    heads.push_back(cfg.addr);
  }
  plan.depth = planner.Children(heads, spec.servers) + 1;

  plan.client.head = heads.front();
  plan.client.extraHeads.assign(heads.begin() + 1, heads.end());
  plan.client.cnsd = plan.cnsd;
  if (spec.withProxy) {
    pcache::ProxyCacheConfig& pcfg = plan.proxy.emplace();
    pcfg.addr = planner.next++;
    pcfg.name = "proxy0";
    pcfg.origin = plan.client;
    pcfg.cache = spec.proxyCache;
    pcfg.readAhead = spec.proxyReadAhead;
    pcfg.diskCapacityBytes = spec.proxyDiskCapacity;
  }
  plan.nextAddr = planner.next;
  return plan;
}

}  // namespace scalla::sim
