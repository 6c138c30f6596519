// The in-process cluster under test: one manager ScallaNode, four leaves
// on MemOss, an optional pcache::ProxyCacheNode and up to two ScallaClient
// endpoints. Every node and client runs on its own ThreadExecutor, and all
// of them share one loopback TcpFabric with default FabricOptions.
//
// With a Tracer, each endpoint is built on TracingExecutor / TracingSink /
// TracingFabric / TracingOss wrappers; without one, on the plain objects.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/scalla_client.h"
#include "net/tcp_fabric.h"
#include "oss/mem_oss.h"
#include "pcache/proxy_node.h"
#include "sched/thread_executor.h"
#include "trace.h"
#include "xrd/scalla_node.h"

namespace perfbench {

using scalla::net::NodeAddr;

inline constexpr int kLeaves = 4;
inline constexpr NodeAddr kManagerAddr = 1;
inline constexpr NodeAddr kFirstLeafAddr = 2;
inline constexpr NodeAddr kProxyAddr = kFirstLeafAddr + kLeaves;
inline constexpr NodeAddr kFirstClientAddr = kProxyAddr + 1;

inline NodeAddr LeafAddr(int leaf) { return kFirstLeafAddr + static_cast<NodeAddr>(leaf); }

struct ClusterOptions {
  std::uint16_t basePort = 0;  // endpoint addr listens on basePort + addr
  /// Client endpoints; client 0 targets `client0Head`, client 1 the manager.
  int clients = 1;
  NodeAddr client0Head = kManagerAddr;
  bool proxy = false;
  std::uint64_t proxyDramBytes = 0;
  std::uint64_t proxyDiskBytes = 0;
  Tracer* tracer = nullptr;
};

/// A dispatch thread the benchmark started, by role ("mgr", "leaf0", ...).
struct ExecutorThread {
  std::string role;
  int tid = 0;
};

class Cluster {
 public:
  /// Starts every endpoint and waits for the leaf logins. A port that
  /// cannot be bound or a login that does not complete ends the process
  /// with an error.
  explicit Cluster(const ClusterOptions& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  scalla::oss::MemOss& LeafStore(int leaf) { return *leafStores_[static_cast<std::size_t>(leaf)]; }
  scalla::client::ScallaClient& Client(int i) { return *clients_[static_cast<std::size_t>(i)]; }
  /// The executor client `i` runs on; operations are posted here.
  scalla::sched::Executor& ClientExecutor(int i);
  scalla::net::Fabric& Fabric() { return *tcp_; }
  /// Metric snapshots, each taken on the node's own dispatch thread.
  scalla::obs::MetricsSnapshot ManagerMetrics();
  scalla::obs::MetricsSnapshot ProxyMetrics();  // empty without a proxy
  scalla::obs::MetricsSnapshot ClientMetrics(int i);
  const std::vector<ExecutorThread>& Threads() const { return threads_; }

 private:
  struct Endpoint {
    std::unique_ptr<scalla::sched::ThreadExecutor> thread;
    std::unique_ptr<TracingExecutor> traced;
    std::unique_ptr<TracingSink> sink;
    scalla::sched::Executor* exec = nullptr;  // traced or thread
  };

  Endpoint& NewEndpoint(const std::string& role);
  void Register(NodeAddr addr, Endpoint& ep, scalla::net::MessageSink& sink, SinkKind kind);
  scalla::oss::Oss& Storage(scalla::oss::MemOss& store, bool diskTier);

  Tracer* tracer_;
  const std::uint16_t basePort_;
  std::unique_ptr<scalla::net::TcpFabric> tcp_;
  std::unique_ptr<TracingFabric> tracedFabric_;
  scalla::net::Fabric* fabric_ = nullptr;  // what nodes send through

  std::vector<std::unique_ptr<Endpoint>> endpoints_;  // mgr, leaves, proxy, clients
  std::vector<ExecutorThread> threads_;
  std::vector<std::unique_ptr<scalla::oss::MemOss>> leafStores_;
  std::unique_ptr<scalla::oss::MemOss> proxyDisk_;
  std::vector<std::unique_ptr<TracingOss>> tracedStores_;
  std::unique_ptr<scalla::xrd::ScallaNode> manager_;
  std::vector<std::unique_ptr<scalla::xrd::ScallaNode>> leaves_;
  std::unique_ptr<scalla::pcache::ProxyCacheNode> proxy_;
  std::vector<std::unique_ptr<scalla::client::ScallaClient>> clients_;
  Endpoint* proxyEndpoint_ = nullptr;
  std::vector<Endpoint*> clientEndpoints_;
};

/// Runs `fn` on `exec`'s thread and waits for it to finish.
void RunOn(scalla::sched::Executor& exec, const std::function<void()>& fn);

/// Prints the message and ends the process with a failure code: set-up
/// errors have no partial result worth reporting.
[[noreturn]] void Fatal(const std::string& message);

}  // namespace perfbench
