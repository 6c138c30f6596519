#include "sim/tcp_cluster.h"

#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

namespace scalla::sim {

Result<std::unique_ptr<TcpCluster>> TcpCluster::Create(const ClusterSpec& spec,
                                                       std::uint16_t basePort) {
  auto fabric = std::make_unique<net::TcpFabric>(basePort);
  auto made = Create(spec, *fabric, 1);
  if (made.ok()) made.value()->ownedFabric_ = std::move(fabric);
  return made;
}

Result<std::unique_ptr<TcpCluster>> TcpCluster::Create(const ClusterSpec& spec,
                                                       net::TcpFabric& fabric,
                                                       net::NodeAddr firstAddr) {
  if (spec.withCnsd || spec.withMss || spec.proxyDiskCapacity > 0) {
    return ScallaError{proto::XrdErr::kInvalid,
                       "TcpCluster: withCnsd, withMss and a proxy disk tier have no "
                       "real-socket host"};
  }
  // On failure the half-built host's destructor tears down what exists.
  std::unique_ptr<TcpCluster> cluster(new TcpCluster(spec, fabric, firstAddr));
  if (Result<void> built = cluster->Build(); !built) return built.error();
  return cluster;
}

Result<void> TcpCluster::Build() {
  for (xrd::NodeConfig cfg : plan_.nodes) {
    cfg.loginRetry = kLoginRetry;
    auto& loop = *(loops_[cfg.addr] = std::make_unique<sched::ThreadExecutor>());
    auto* group = cfg.role == xrd::NodeRole::kManager      ? &managers_
                  : cfg.role == xrd::NodeRole::kSupervisor ? &supervisors_
                                                           : &leaves_;
    oss::MemOss* storage = nullptr;
    if (group == &leaves_) {
      storage = storages_.emplace_back(std::make_unique<oss::MemOss>(loop.clock())).get();
    }
    group->push_back(std::make_unique<xrd::ScallaNode>(cfg, loop, *fabric_, storage));
    if (Result<void> r = Register(cfg.addr, group->back().get()); !r) return r;
  }
  if (plan_.proxy) {
    const net::NodeAddr addr = plan_.proxy->addr;
    loops_[addr] = std::make_unique<sched::ThreadExecutor>();
    proxy_ = std::make_unique<pcache::ProxyCacheNode>(*plan_.proxy, *loops_[addr], *fabric_);
    if (Result<void> r = Register(addr, proxy_.get()); !r) return r;
  }
  return Start(Nodes());
}

TcpCluster::~TcpCluster() {
  for (xrd::ScallaNode* node : Nodes()) RunOn(node->config().addr, [node] { node->Stop(); });
  // Clients first: each guard unregisters its endpoint, then stops its loop.
  while (!guards_.empty()) guards_.erase(std::prev(guards_.end()));
  ownedFabric_.reset();
}

Result<void> TcpCluster::Register(net::NodeAddr addr, net::MessageSink* sink) {
  sched::ThreadExecutor& loop = *loops_.at(addr);
  if (!fabric_->Register(addr, sink, &loop)) {
    return ScallaError{proto::XrdErr::kIo, "TcpCluster: cannot bind endpoint " +
                                               std::to_string(addr) + "'s port"};
  }
  guards_.try_emplace(addr, *fabric_, addr, loop);  // a restarted server keeps its guard
  return {};
}

Result<void> TcpCluster::Start(const std::vector<xrd::ScallaNode*>& nodes) {
  for (xrd::ScallaNode* node : nodes) RunOn(node->config().addr, [node] { node->Start(); });
  const auto deadline = std::chrono::steady_clock::now() + kSettleTimeout;
  for (xrd::ScallaNode* node : nodes) {
    while (!RunOn(node->config().addr, [node] { return node->LoggedIn(); })) {
      if (std::chrono::steady_clock::now() > deadline) {
        return ScallaError{proto::XrdErr::kIo,
                           "TcpCluster: " + node->config().name + " did not log in"};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return {};
}

std::vector<xrd::ScallaNode*> TcpCluster::Nodes() const {
  std::vector<xrd::ScallaNode*> nodes;
  for (const auto* group : {&managers_, &supervisors_, &leaves_}) {
    for (const auto& node : *group) nodes.push_back(node.get());
  }
  return nodes;
}

client::SyncClient* TcpCluster::NewClient(Duration timeout, net::NodeAddr head) {
  client::ClientConfig cfg = plan_.client;
  cfg.addr = plan_.nextAddr + static_cast<net::NodeAddr>(clients_.size());
  if (head != 0) {
    cfg.head = head;
    cfg.extraHeads.clear();
  }
  auto& loop = *(loops_[cfg.addr] = std::make_unique<sched::ThreadExecutor>());
  auto& c = *clients_.emplace_back(
      std::make_unique<client::SyncClient>(cfg, loop, *fabric_, timeout));
  return Register(cfg.addr, &c.async()) ? &c : nullptr;
}

void TcpCluster::CrashServer(std::size_t i) {
  xrd::ScallaNode* node = leaves_[i].get();
  RunOn(node->config().addr, [node] { node->Stop(); });
  fabric_->Unregister(node->config().addr);
}

Result<void> TcpCluster::RestartServer(std::size_t i) {
  // Tasks the crashed node queued on its loop may still name it, so it
  // lives on, stopped, until teardown.
  const xrd::NodeConfig& cfg = leaves_[i]->config();
  auto fresh = std::make_unique<xrd::ScallaNode>(cfg, *loops_.at(cfg.addr), *fabric_,
                                                 storages_[i].get());
  retired_.push_back(std::exchange(leaves_[i], std::move(fresh)));
  xrd::ScallaNode* node = leaves_[i].get();
  if (Result<void> r = Register(node->config().addr, node); !r) return r;
  return Start({node});
}

}  // namespace scalla::sim
