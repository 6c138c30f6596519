#include "sim/cluster.h"

#include <cassert>

namespace scalla::sim {

SimCluster::SimCluster(const ClusterSpec& spec)
    : spec_(spec),
      ownedEngine_(std::make_unique<EventEngine>()),
      ownedFabric_(std::make_unique<SimFabric>(*ownedEngine_, spec.latency)),
      engine_(ownedEngine_.get()),
      fabric_(ownedFabric_.get()) {
  Build(1);
}

SimCluster::SimCluster(const ClusterSpec& spec, EventEngine& engine, SimFabric& fabric,
                       net::NodeAddr firstAddr)
    : spec_(spec), engine_(&engine), fabric_(&fabric) {
  Build(firstAddr);
}

void SimCluster::Build(net::NodeAddr firstAddr) {
  plan_ = PlanCluster(spec_, firstAddr);
  if (plan_.cnsd != 0) {
    cns_ = std::make_unique<cnsd::CnsDaemon>(plan_.cnsd, *fabric_);
    fabric_->Register(plan_.cnsd, cns_.get());
  }

  for (const xrd::NodeConfig& cfg : plan_.nodes) {
    std::unique_ptr<oss::MemOss> storage;
    if (cfg.role == xrd::NodeRole::kServer) {
      storage = spec_.withMss ? std::make_unique<oss::MssOss>(engine_->clock(), spec_.mss)
                              : std::make_unique<oss::MemOss>(engine_->clock());
    }
    auto node = std::make_unique<xrd::ScallaNode>(cfg, *engine_, *fabric_, storage.get());
    fabric_->Register(cfg.addr, node.get());
    if (cfg.role == xrd::NodeRole::kManager) {
      managers_.push_back(std::move(node));
    } else if (cfg.role == xrd::NodeRole::kSupervisor) {
      supervisors_.push_back(std::move(node));
    } else {
      leaves_.push_back(std::move(node));
      storages_.push_back(std::move(storage));
    }
  }

  if (plan_.proxy) {
    pcache::ProxyCacheConfig pcfg = *plan_.proxy;
    if (pcfg.diskCapacityBytes > 0) {
      proxyDisk_ = std::make_unique<oss::MemOss>(engine_->clock());
      pcfg.diskOss = proxyDisk_.get();
    }
    proxy_ = std::make_unique<pcache::ProxyCacheNode>(pcfg, *engine_, *fabric_);
    fabric_->Register(pcfg.addr, proxy_.get());
  }
}

SimCluster::~SimCluster() {
  // Nodes hold timers on the engine; stop them before members tear down.
  for (auto& m : managers_) m->Stop();
  for (auto& s : supervisors_) s->Stop();
  for (auto& l : leaves_) l->Stop();
}

void SimCluster::Start() {
  for (auto& m : managers_) m->Start();
  for (auto& s : supervisors_) s->Start();
  for (auto& l : leaves_) l->Start();
  engine_->RunUntilIdle();  // logins settle
}

oss::MssOss* SimCluster::mssStorage(std::size_t i) {
  return spec_.withMss ? static_cast<oss::MssOss*>(storages_[i].get()) : nullptr;
}

template <typename T, typename Begin>
std::optional<T> SimCluster::Await(Begin begin, Duration timeout) {
  // A callback that outlives a timed-out wait lands in shared storage,
  // never in a dead stack slot.
  auto result = std::make_shared<std::optional<T>>();
  begin([result](auto&&... args) { result->emplace(std::forward<decltype(args)>(args)...); });
  engine_->RunUntilPredicate([result] { return result->has_value(); },
                            engine_->Now() + timeout);
  return std::move(*result);
}

Result<std::vector<std::string>> SimCluster::ListAndWait(client::ScallaClient& c,
                                                         const std::string& prefix) {
  auto result = Await<std::pair<proto::XrdErr, std::vector<std::string>>>(
      [&](auto done) { c.List(prefix, std::move(done)); }, std::chrono::seconds(30));
  if (!result.has_value()) {
    return ScallaError{proto::XrdErr::kIo, "list '" + prefix + "': timed out"};
  }
  if (result->first != proto::XrdErr::kNone) {
    return ScallaError{result->first, "list '" + prefix + "': " + XrdErrName(result->first)};
  }
  return std::move(result->second);
}

client::ScallaClient& SimCluster::NewClient() {
  client::ClientConfig cfg = plan_.client;
  cfg.addr = plan_.nextAddr + static_cast<net::NodeAddr>(clients_.size());
  auto c = std::make_unique<client::ScallaClient>(cfg, *engine_, *fabric_);
  fabric_->Register(cfg.addr, c.get());
  clients_.push_back(std::move(c));
  return *clients_.back();
}

client::ScallaClient& SimCluster::NewProxyClient() {
  assert(proxy_ != nullptr);
  client::ClientConfig cfg;
  cfg.addr = plan_.nextAddr + static_cast<net::NodeAddr>(clients_.size());
  cfg.head = proxy_->config().addr;
  cfg.cnsd = plan_.cnsd;
  auto c = std::make_unique<client::ScallaClient>(cfg, *engine_, *fabric_);
  fabric_->Register(cfg.addr, c.get());
  clients_.push_back(std::move(c));
  return *clients_.back();
}

void SimCluster::PlaceFile(std::size_t i, const std::string& path, std::string data) {
  storages_[i]->Put(path, std::move(data));
}

client::OpenOutcome SimCluster::OpenAndWait(client::ScallaClient& c,
                                            const std::string& path, cms::AccessMode mode,
                                            bool create, Duration timeout) {
  auto result = Await<client::OpenOutcome>(
      [&](auto done) { c.Open(path, mode, create, std::move(done)); }, timeout);
  if (!result.has_value()) {
    client::OpenOutcome timedOut;
    timedOut.err = proto::XrdErr::kIo;
    return timedOut;
  }
  return *result;
}

Result<std::string> SimCluster::ReadAll(client::ScallaClient& c,
                                        const std::string& path) {
  const auto open = OpenAndWait(c, path, cms::AccessMode::kRead, false);
  if (open.err != proto::XrdErr::kNone) {
    return ScallaError{open.err, "open '" + path + "': " + XrdErrName(open.err)};
  }
  std::string all;
  std::uint64_t offset = 0;
  for (;;) {
    auto result = Await<std::pair<proto::XrdErr, std::string>>(
        [&](auto done) { c.Read(open.file, offset, 1 << 16, std::move(done)); },
        std::chrono::seconds(30));
    if (!result.has_value()) {
      return ScallaError{proto::XrdErr::kIo, "read '" + path + "': timed out"};
    }
    if (result->first != proto::XrdErr::kNone) {
      return ScallaError{result->first, "read '" + path + "': " + XrdErrName(result->first)};
    }
    if (result->second.empty()) break;
    offset += result->second.size();
    all += std::move(result->second);
  }
  (void)CloseAndWait(c, open.file);
  return all;
}

Result<void> SimCluster::PutFile(client::ScallaClient& c, const std::string& path,
                                 std::string data) {
  const auto open = OpenAndWait(c, path, cms::AccessMode::kWrite, /*create=*/true);
  if (open.err != proto::XrdErr::kNone) {
    return ScallaError{open.err, "open '" + path + "': " + XrdErrName(open.err)};
  }
  const auto written = Await<std::pair<proto::XrdErr, std::uint32_t>>(
      [&](auto done) { c.Write(open.file, 0, std::move(data), std::move(done)); },
      std::chrono::seconds(30));
  const Result<void> closed = CloseAndWait(c, open.file);
  const proto::XrdErr werr = written ? written->first : proto::XrdErr::kIo;
  return Result<void>::From(werr != proto::XrdErr::kNone ? werr : closed.code(),
                            "put '" + path + "'");
}

Result<void> SimCluster::CloseAndWait(client::ScallaClient& c, const client::FileRef& file,
                                      Duration timeout) {
  const auto err = Await<proto::XrdErr>(
      [&](auto done) { c.Close(file, std::move(done)); }, timeout);
  return Result<void>::From(err.value_or(proto::XrdErr::kIo), "close");
}

Result<void> SimCluster::UnlinkAndWait(client::ScallaClient& c, const std::string& path) {
  const auto err = Await<proto::XrdErr>(
      [&](auto done) { c.Unlink(path, std::move(done)); }, std::chrono::seconds(60));
  return Result<void>::From(err.value_or(proto::XrdErr::kIo), "unlink '" + path + "'");
}

Result<void> SimCluster::PrepareAndWait(client::ScallaClient& c,
                                        const std::vector<std::string>& paths,
                                        cms::AccessMode mode) {
  const auto err = Await<proto::XrdErr>(
      [&](auto done) { c.Prepare(paths, mode, std::move(done)); }, std::chrono::seconds(60));
  return Result<void>::From(err.value_or(proto::XrdErr::kIo), "prepare batch");
}

client::ScallaClient::ClusterStats SimCluster::ClusterStats(client::ScallaClient* c) {
  client::ScallaClient& querier = c ? *c : NewClient();
  return Await<client::ScallaClient::ClusterStats>(
             [&](auto done) { querier.QueryStats(std::move(done)); }, std::chrono::seconds(30))
      .value_or(client::ScallaClient::ClusterStats{});
}

xrd::ScallaNode* SimCluster::FindNode(net::NodeAddr addr) {
  for (auto& m : managers_) {
    if (m->config().addr == addr) return m.get();
  }
  for (auto& s : supervisors_) {
    if (s->config().addr == addr) return s.get();
  }
  for (auto& l : leaves_) {
    if (l->config().addr == addr) return l.get();
  }
  return nullptr;
}

void SimCluster::CrashServer(std::size_t i) {
  fabric_->SetDown(leaves_[i]->config().addr, true);
  // Every parent discovers the loss when it next touches the peer;
  // surface it immediately the way a broken TCP connection would.
  const net::NodeAddr addr = leaves_[i]->config().addr;
  std::vector<net::NodeAddr> parents = leaves_[i]->Parents();
  engine_->Post([this, parents, addr] {
    for (const net::NodeAddr parent : parents) {
      if (xrd::ScallaNode* p = FindNode(parent)) p->OnPeerDown(addr);
    }
  });
}

void SimCluster::CrashManager(std::size_t i) {
  const net::NodeAddr addr = managers_[i]->config().addr;
  fabric_->SetDown(addr, true);
  // Clients and subordinates learn on their next send (the fabric calls
  // their OnPeerDown), mirroring TCP connection failure.
}

void SimCluster::RestoreManager(std::size_t i) {
  fabric_->SetDown(managers_[i]->config().addr, false);
}

void SimCluster::RestartServer(std::size_t i) {
  fabric_->SetDown(leaves_[i]->config().addr, false);
  // The node's login retry timer re-announces it; nudge immediately.
  leaves_[i]->Stop();
  leaves_[i]->Start();
}

void SimCluster::WedgeServer(std::size_t i) {
  fabric_->SetWedged(leaves_[i]->config().addr, true);
}

void SimCluster::UnwedgeServer(std::size_t i) {
  fabric_->SetWedged(leaves_[i]->config().addr, false);
}

Result<proto::CmsDrainResp> SimCluster::DrainAndWait(client::ScallaClient& c,
                                                     const std::string& server,
                                                     bool restore) {
  auto result = Await<std::pair<proto::XrdErr, proto::CmsDrainResp>>(
      [&](auto done) { c.Drain(server, restore, std::move(done)); }, std::chrono::seconds(30));
  if (!result.has_value()) {
    return ScallaError{proto::XrdErr::kIo, "drain '" + server + "': timed out"};
  }
  if (result->first != proto::XrdErr::kNone) {
    const std::string detail =
        result->second.error.empty() ? XrdErrName(result->first) : result->second.error;
    return ScallaError{result->first, "drain '" + server + "': " + detail};
  }
  return result->second;
}

void SimCluster::RunFor(Duration d) { engine_->RunUntil(engine_->Now() + d); }

}  // namespace scalla::sim
