#include "sim/federation.h"

#include <cassert>

namespace scalla::sim {

namespace {
// Each member cluster allocates node addresses from its own band so the
// shared fabric never sees a collision; 1000 addresses per cluster is
// far beyond any tree the 64-slot ServerSet can host.
constexpr net::NodeAddr kClusterAddrBand = 1000;
}  // namespace

xrd::NodeConfig DefaultMetaConfig() {
  xrd::NodeConfig cfg;
  cfg.role = xrd::NodeRole::kManager;
  cfg.name = "meta";
  cfg.selection = cms::SelectCriterion::kLoad;
  return cfg;
}

SimFederation::SimFederation(const FederationSpec& spec)
    : spec_(spec), fabric_(engine_) {
  assert(spec_.clusters >= 1);

  xrd::NodeConfig mcfg = spec_.meta;
  if (mcfg.addr == 0) mcfg.addr = 1;
  meta_ = std::make_unique<xrd::ScallaNode>(mcfg, engine_, fabric_, nullptr);
  fabric_.Register(mcfg.addr, meta_.get());

  for (int c = 0; c < spec_.clusters; ++c) {
    ClusterSpec cs = spec_.cluster;
    cs.meta = mcfg.addr;
    cs.clusterName = "cluster" + std::to_string(c);
    cs.locality = static_cast<std::size_t>(c) < spec_.localities.size()
                      ? spec_.localities[c]
                      : 0;
    clusters_.push_back(std::make_unique<SimCluster>(
        cs, engine_, fabric_, kClusterAddrBand * (c + 1)));
  }

  if (spec_.withEdgeProxy) {
    pcache::ProxyCacheConfig pcfg;
    pcfg.addr = nextClientAddr_++;
    pcfg.name = "edge0";
    pcfg.origin.head = mcfg.addr;  // the meta IS the proxy's origin head
    proxy_ = std::make_unique<pcache::ProxyCacheNode>(pcfg, engine_, fabric_);
    fabric_.Register(pcfg.addr, proxy_.get());
  }
}

SimFederation::~SimFederation() {
  // Clusters stop their own nodes; the meta holds engine timers too.
  meta_->Stop();
}

void SimFederation::Start() {
  meta_->Start();
  for (auto& c : clusters_) c->Start();
  engine_.RunUntilIdle();  // logins settle, the heads' into the meta too
}

client::ScallaClient& SimFederation::NewClient() {
  client::ClientConfig cfg;
  cfg.addr = nextClientAddr_++;
  cfg.head = meta_->config().addr;
  auto c = std::make_unique<client::ScallaClient>(cfg, engine_, fabric_);
  fabric_.Register(cfg.addr, c.get());
  clients_.push_back(std::move(c));
  return *clients_.back();
}

client::ScallaClient& SimFederation::NewEdgeClient() {
  assert(proxy_ != nullptr);
  client::ClientConfig cfg;
  cfg.addr = nextClientAddr_++;
  cfg.head = proxy_->config().addr;
  auto c = std::make_unique<client::ScallaClient>(cfg, engine_, fabric_);
  fabric_.Register(cfg.addr, c.get());
  clients_.push_back(std::move(c));
  return *clients_.back();
}

void SimFederation::PlaceFile(std::size_t c, std::size_t leaf, const std::string& path,
                              std::string data) {
  clusters_[c]->PlaceFile(leaf, path, std::move(data));
}

client::OpenOutcome SimFederation::OpenAndWait(client::ScallaClient& c,
                                               const std::string& path,
                                               cms::AccessMode mode, bool create,
                                               Duration timeout) {
  // The driving helpers only touch the shared engine, so any member
  // cluster's implementation drives the whole federation.
  return clusters_.front()->OpenAndWait(c, path, mode, create, timeout);
}

Result<std::string> SimFederation::ReadAll(client::ScallaClient& c,
                                           const std::string& path) {
  return clusters_.front()->ReadAll(c, path);
}

Result<void> SimFederation::PutFile(client::ScallaClient& c, const std::string& path,
                                    std::string data) {
  return clusters_.front()->PutFile(c, path, std::move(data));
}

client::ScallaClient::ClusterStats SimFederation::FederationStats(
    client::ScallaClient* c) {
  return clusters_.front()->ClusterStats(c != nullptr ? c : &NewClient());
}

void SimFederation::PartitionCluster(std::size_t i) {
  const net::NodeAddr meta = meta_->config().addr;
  for (std::size_t m = 0; m < clusters_[i]->ManagerCount(); ++m) {
    const net::NodeAddr head = clusters_[i]->manager(m).config().addr;
    fabric_.SetDrop(meta, head, true);
    fabric_.SetDrop(head, meta, true);
  }
}

void SimFederation::RejoinCluster(std::size_t i) {
  const net::NodeAddr meta = meta_->config().addr;
  for (std::size_t m = 0; m < clusters_[i]->ManagerCount(); ++m) {
    const net::NodeAddr head = clusters_[i]->manager(m).config().addr;
    fabric_.SetDrop(meta, head, false);
    fabric_.SetDrop(head, meta, false);
  }
}

void SimFederation::RunFor(Duration d) { engine_.RunUntil(engine_.Now() + d); }

}  // namespace scalla::sim
