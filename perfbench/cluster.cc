#include "cluster.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>

#include "host.h"

namespace perfbench {

using scalla::sched::Executor;

void Fatal(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void RunOn(Executor& exec, const std::function<void()>& fn) {
  std::promise<void> done;
  auto future = done.get_future();
  exec.Post([&] {
    fn();
    done.set_value();
  });
  if (future.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    Fatal("an executor did not run a posted task within 30 s");
  }
}

Cluster::Endpoint& Cluster::NewEndpoint(const std::string& role) {
  auto ep = std::make_unique<Endpoint>();
  ep->thread = std::make_unique<scalla::sched::ThreadExecutor>();
  int tid = 0;
  RunOn(*ep->thread, [&] {
    NameThisThread("pb-" + role);
    tid = CurrentTid();
  });
  threads_.push_back({role, tid});
  if (tracer_ != nullptr) {
    ep->traced = std::make_unique<TracingExecutor>(*ep->thread, *tracer_);
    ep->exec = ep->traced.get();
  } else {
    ep->exec = ep->thread.get();
  }
  endpoints_.push_back(std::move(ep));
  return *endpoints_.back();
}

void Cluster::Register(NodeAddr addr, Endpoint& ep, scalla::net::MessageSink& sink,
                       SinkKind kind) {
  scalla::net::MessageSink* registered = &sink;
  if (tracer_ != nullptr) {
    ep.sink = std::make_unique<TracingSink>(sink, *tracer_, addr, kind);
    registered = ep.sink.get();
  }
  if (!tcp_->Register(addr, registered, ep.exec)) {
    Fatal("cannot bind 127.0.0.1:" + std::to_string(basePort_ + addr) +
          " for endpoint " + std::to_string(addr) + " (is the port in use?)");
  }
}

scalla::oss::Oss& Cluster::Storage(scalla::oss::MemOss& store, bool diskTier) {
  if (tracer_ == nullptr) return store;
  tracedStores_.push_back(std::make_unique<TracingOss>(store, *tracer_, diskTier));
  return *tracedStores_.back();
}

Cluster::Cluster(const ClusterOptions& options)
    : tracer_(options.tracer), basePort_(options.basePort) {
  tcp_ = std::make_unique<scalla::net::TcpFabric>(options.basePort);
  fabric_ = tcp_.get();
  if (tracer_ != nullptr) {
    tracedFabric_ = std::make_unique<TracingFabric>(*tcp_, *tracer_);
    fabric_ = tracedFabric_.get();
  }

  scalla::xrd::NodeConfig mgr;
  mgr.role = scalla::xrd::NodeRole::kManager;
  mgr.name = "manager";
  mgr.addr = kManagerAddr;
  Endpoint& mgrEp = NewEndpoint("mgr");
  manager_ = std::make_unique<scalla::xrd::ScallaNode>(mgr, *mgrEp.exec, *fabric_, nullptr);
  Register(kManagerAddr, mgrEp, *manager_, SinkKind::kHead);

  for (int i = 0; i < kLeaves; ++i) {
    scalla::xrd::NodeConfig leaf;
    leaf.role = scalla::xrd::NodeRole::kServer;
    leaf.name = "leaf" + std::to_string(i);
    leaf.addr = LeafAddr(i);
    leaf.parent = kManagerAddr;
    Endpoint& ep = NewEndpoint(leaf.name);
    leafStores_.push_back(std::make_unique<scalla::oss::MemOss>(ep.thread->clock()));
    leaves_.push_back(std::make_unique<scalla::xrd::ScallaNode>(
        leaf, *ep.exec, *fabric_, &Storage(*leafStores_.back(), false)));
    Register(leaf.addr, ep, *leaves_.back(), SinkKind::kLeaf);
  }

  if (options.proxy) {
    Endpoint& ep = NewEndpoint("proxy");
    proxyDisk_ = std::make_unique<scalla::oss::MemOss>(ep.thread->clock());
    scalla::pcache::ProxyCacheConfig pc;
    pc.addr = kProxyAddr;
    pc.origin.head = kManagerAddr;
    pc.cache.capacityBytes = options.proxyDramBytes;
    pc.diskCapacityBytes = options.proxyDiskBytes;
    pc.diskOss = &Storage(*proxyDisk_, true);
    proxy_ = std::make_unique<scalla::pcache::ProxyCacheNode>(pc, *ep.exec, *fabric_);
    Register(kProxyAddr, ep, *proxy_, SinkKind::kProxy);
    proxyEndpoint_ = &ep;
  }

  for (int i = 0; i < options.clients; ++i) {
    scalla::client::ClientConfig cc;
    cc.addr = kFirstClientAddr + static_cast<NodeAddr>(i);
    cc.head = i == 0 ? options.client0Head : kManagerAddr;
    Endpoint& ep = NewEndpoint("cli" + std::to_string(i));
    clients_.push_back(std::make_unique<scalla::client::ScallaClient>(cc, *ep.exec, *fabric_));
    Register(cc.addr, ep, *clients_.back(), SinkKind::kClient);
    clientEndpoints_.push_back(&ep);
  }

  RunOn(*endpoints_[0]->exec, [&] { manager_->Start(); });
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    RunOn(*endpoints_[i + 1]->exec, [&] { leaves_[i]->Start(); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    bool all = true;
    for (std::size_t i = 0; i < leaves_.size(); ++i) {
      RunOn(*endpoints_[i + 1]->thread, [&] { all = all && leaves_[i]->LoggedIn(); });
    }
    if (all) break;
    if (std::chrono::steady_clock::now() > deadline) {
      Fatal("leaf logins did not complete within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

scalla::obs::MetricsSnapshot Cluster::ManagerMetrics() {
  scalla::obs::MetricsSnapshot snap;
  RunOn(*endpoints_[0]->thread, [&] { snap = manager_->SnapshotMetrics(); });
  return snap;
}

scalla::obs::MetricsSnapshot Cluster::ProxyMetrics() {
  scalla::obs::MetricsSnapshot snap;
  if (proxy_ != nullptr) RunOn(*proxyEndpoint_->thread, [&] { snap = proxy_->SnapshotMetrics(); });
  return snap;
}

scalla::obs::MetricsSnapshot Cluster::ClientMetrics(int i) {
  scalla::obs::MetricsSnapshot snap;
  const auto idx = static_cast<std::size_t>(i);
  RunOn(*clientEndpoints_[idx]->thread, [&] { snap = clients_[idx]->SnapshotMetrics(); });
  return snap;
}

Executor& Cluster::ClientExecutor(int i) {
  return *clientEndpoints_[static_cast<std::size_t>(i)]->exec;
}

Cluster::~Cluster() {
  // Node code runs only on the dispatch threads: stop the nodes there,
  // join every dispatch thread, and only then tear the fabric down.
  RunOn(*endpoints_[0]->thread, [&] { manager_->Stop(); });
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    RunOn(*endpoints_[i + 1]->thread, [&] { leaves_[i]->Stop(); });
  }
  for (auto& ep : endpoints_) ep->thread->Stop();
  tcp_.reset();
  clients_.clear();
  proxy_.reset();
  leaves_.clear();
  manager_.reset();
}

}  // namespace perfbench
