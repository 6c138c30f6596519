// Real-socket cluster host: builds SimCluster's ClusterPlan over loopback
// TCP, each node and client on a sched::ThreadExecutor of its own that
// hosts its sockets. Node code runs only on its own loop: Start, Stop and
// state reads (RunOn) go there. Creation fails unless every endpoint binds
// and every node has logged into each of its parents (in a federation, a
// member cluster's heads log into the meta-manager). Teardown stops every
// node on its loop, then each endpoint's net::EndpointGuard unregisters it
// and stops its loop. spec.withCnsd, spec.withMss and a proxy disk tier
// are rejected; spec.latency is ignored.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "client/sync_client.h"
#include "net/endpoint_guard.h"
#include "net/tcp_fabric.h"
#include "oss/mem_oss.h"
#include "pcache/proxy_node.h"
#include "sched/thread_executor.h"
#include "sim/cluster_plan.h"
#include "util/result.h"
#include "xrd/scalla_node.h"

namespace scalla::sim {

class TcpCluster {
 public:
  /// How often a node re-sends an unanswered login.
  static constexpr Duration kLoginRetry = std::chrono::milliseconds(100);
  /// How long Create and RestartServer wait for logins to settle.
  static constexpr Duration kSettleTimeout = std::chrono::seconds(10);

  /// Builds `spec` on a fabric of its own whose endpoint `addr` listens on
  /// 127.0.0.1:basePort+addr.
  static Result<std::unique_ptr<TcpCluster>> Create(const ClusterSpec& spec,
                                                    std::uint16_t basePort);
  ~TcpCluster();

  net::TcpFabric& fabric() { return fabric_; }
  int Depth() const { return plan_.depth; }
  /// Managers and leaves are numbered in plan order, so in a federation
  /// the meta is manager 0, the head.
  xrd::ScallaNode& head() { return *managers_[0]; }
  std::size_t ManagerCount() const { return managers_.size(); }
  xrd::ScallaNode& manager(std::size_t i) { return *managers_[i]; }
  std::size_t SupervisorCount() const { return supervisors_.size(); }
  xrd::ScallaNode& supervisor(std::size_t i) { return *supervisors_[i]; }
  std::size_t ServerCount() const { return leaves_.size(); }
  xrd::ScallaNode& server(std::size_t i) { return *leaves_[i]; }
  oss::MemOss& storage(std::size_t i) { return *storages_[i]; }
  pcache::ProxyCacheNode* proxy() { return proxy_.get(); }

  /// A client of the plan's heads, or of `head` when set; nullptr when its
  /// port cannot be bound.
  client::SyncClient* NewClient(Duration timeout, net::NodeAddr head = 0);
  /// A client of the proxy (spec.withProxy).
  client::SyncClient* NewProxyClient(Duration timeout) {
    return NewClient(timeout, proxy_->config().addr);
  }

  /// Stops leaf `i` on its loop and unregisters it, as if it crashed.
  void CrashServer(std::size_t i);
  /// Brings crashed leaf `i` back as a fresh node on the same address, loop
  /// and storage, and waits until it has logged in again.
  Result<void> RestartServer(std::size_t i);

  /// Runs `fn` on the loop of the node or client at `addr`; returns its result.
  template <typename Fn>
  auto RunOn(net::NodeAddr addr, Fn fn) -> decltype(fn()) {
    sched::ThreadExecutor& loop = *loops_.at(addr);
    if constexpr (std::is_void_v<decltype(fn())>) {
      loop.RunSync(fn);
    } else {
      std::optional<decltype(fn())> out;
      loop.RunSync([&] { out.emplace(fn()); });
      return std::move(*out);
    }
  }

 private:
  TcpCluster(const ClusterSpec& spec, std::uint16_t basePort)
      : plan_(PlanCluster(spec)), fabric_(basePort) {}
  Result<void> Build();
  /// Registers `sink` at `addr` on its loop, guarded from then on.
  Result<void> Register(net::NodeAddr addr, net::MessageSink* sink);
  /// Starts `nodes` on their loops and waits for their logins.
  Result<void> Start(const std::vector<xrd::ScallaNode*>& nodes);
  std::vector<xrd::ScallaNode*> Nodes() const;

  ClusterPlan plan_;
  // Declared before the sinks: every loop outlives the nodes and clients,
  // and the fabric, whose teardown stops its connections on their loops.
  std::map<net::NodeAddr, std::unique_ptr<sched::ThreadExecutor>> loops_;
  net::TcpFabric fabric_;
  std::map<net::NodeAddr, net::EndpointGuard> guards_;  // every endpoint that registered
  std::vector<std::unique_ptr<oss::MemOss>> storages_;
  std::vector<std::unique_ptr<xrd::ScallaNode>> managers_;
  std::vector<std::unique_ptr<xrd::ScallaNode>> supervisors_;
  std::vector<std::unique_ptr<xrd::ScallaNode>> leaves_;
  std::vector<std::unique_ptr<xrd::ScallaNode>> retired_;  // crashed, then replaced
  std::unique_ptr<pcache::ProxyCacheNode> proxy_;
  std::vector<std::unique_ptr<client::SyncClient>> clients_;
};

}  // namespace scalla::sim
