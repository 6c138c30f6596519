#include "fed/meta_manager.h"

#include <type_traits>
#include <utility>

namespace scalla::fed {

MetaManager::FedMetrics::FedMetrics(obs::MetricsRegistry& r)
    : subscribes(r.GetCounter("fed.subscribes")),
      locates(r.GetCounter("fed.locates")),
      redirects(r.GetCounter("fed.redirects_issued")),
      waits(r.GetCounter("fed.waits_issued")),
      notFound(r.GetCounter("fed.not_found")),
      clusterDeaths(r.GetCounter("fed.cluster_deaths")),
      statsQueries(r.GetCounter("fed.stats_queries")) {}

MetaManager::MetaManager(MetaConfig config, sched::Executor& executor,
                         net::Fabric& fabric)
    : config_(std::move(config)),
      fabric_(fabric),
      core_(config_.cms, config_.selection, config_.name, config_.addr, executor, fabric,
            metrics_,
            {"fed.",
             // Piggybacked head load, weighted by the cluster's locality,
             // keeps the cross-cluster replica preference fresh.
             [this](ServerSlot cluster, std::uint32_t load) {
               return EffectiveLoad(cluster, load);
             },
             // DeclareDead already shed the whole cluster's V_h/V_p bits in
             // O(1); there is no subtree below a cluster head to notify.
             [this](const std::string&) { fm_.clusterDeaths.Inc(); }}),
      fm_(metrics_),
      stats_(config_.addr, executor, fabric) {}

MetaManager::~MetaManager() { Stop(); }

void MetaManager::Start() {
  if (started_) return;
  started_ = true;
  core_.Start(/*headDuties=*/true);
}

void MetaManager::Stop() {
  core_.Stop();
  stats_.Cancel();
  started_ = false;
}

std::uint32_t MetaManager::EffectiveLoad(ServerSlot clusterId,
                                         std::uint32_t headLoad) const {
  // Locality dominates: a far cluster only wins a load-based selection
  // when every nearer replica is saturated past a full locality step.
  return locality_[clusterId] * kLocalityScale + headLoad;
}

obs::MetricsSnapshot MetaManager::SnapshotMetrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  core_.ExportMetrics(snap);
  snap.AddGauge("fed.clusters", static_cast<std::int64_t>(core_.membership().MemberCount()));
  snap.AddGauge("fed.clusters_online",
                static_cast<std::int64_t>(core_.membership().OnlineSet().count()));
  return snap;
}

void MetaManager::OnPeerDown(net::NodeAddr peer) { core_.OnPeerDown(peer); }

void MetaManager::OnMessage(net::NodeAddr from, proto::Message message) {
  std::visit(
      [this, from](auto&& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, proto::CmsLogin>) {
          HandleLogin(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsHave>) {
          core_.OnHave(from, m.path, m.hash, m.pending, m.allowWrite);
        } else if constexpr (std::is_same_v<M, proto::CmsGone>) {
          core_.OnGone(from, m.path);
        } else if constexpr (std::is_same_v<M, proto::FedLocate>) {
          fm_.locates.Inc();
          core_.Answer<proto::FedRedirect>(
              from, m.reqId, m.path, core_.OptionsFor(m.mode, m.refresh, m.avoidCluster),
              {&fm_.redirects, &fm_.waits, &fm_.notFound});
        } else if constexpr (std::is_same_v<M, proto::XrdOpen>) {
          HandleOpen(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdStat>) {
          fm_.locates.Inc();
          core_.Answer<proto::XrdStatResp>(from, m.reqId, m.path,
                                           core_.OptionsFor(0, m.refresh, m.avoidNode),
                                           {&fm_.redirects});
        } else if constexpr (std::is_same_v<M, proto::XrdUnlink>) {
          fm_.locates.Inc();
          core_.Answer<proto::XrdUnlinkResp>(from, m.reqId, m.path,
                                             core_.OptionsFor(0, m.refresh, m.avoidNode),
                                             {&fm_.redirects});
        } else if constexpr (std::is_same_v<M, proto::XrdChecksum>) {
          fm_.locates.Inc();
          core_.Answer<proto::XrdChecksumResp>(from, m.reqId, m.path,
                                               core_.OptionsFor(0, m.refresh, m.avoidNode),
                                               {&fm_.redirects});
        } else if constexpr (std::is_same_v<M, proto::XrdPrepare>) {
          // Parallel prepare at federation scope warms the cluster-location
          // cache for every named path concurrently.
          core_.Prefetch(m.paths, m.mode);
          proto::XrdPrepareResp resp;
          resp.reqId = m.reqId;
          fabric_.Send(config_.addr, from, std::move(resp));
        } else if constexpr (std::is_same_v<M, proto::CmsPong>) {
          core_.OnPong(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsDrain>) {
          // Operator drain by cluster name: takes a whole cluster out of
          // federation selection while it stays logged in.
          proto::CmsDrainResp resp;
          resp.reqId = m.reqId;
          const auto slot = core_.membership().SlotOf(m.server);
          if (slot.has_value()) {
            core_.membership().SetDraining(*slot, !m.restore);
            resp.ok = true;
            resp.applied = true;
          } else {
            resp.error = "unknown cluster '" + m.server + "'";
          }
          if (m.reqId != 0) fabric_.Send(config_.addr, from, std::move(resp));
        } else if constexpr (std::is_same_v<M, proto::StatsQuery>) {
          fm_.statsQueries.Inc();
          stats_.OnQuery(from, m.reqId, SnapshotMetrics(), core_.OnlineAddrs());
        } else if constexpr (std::is_same_v<M, proto::StatsReply>) {
          if (ClusterOfHead(from).has_value()) stats_.OnReply(m);
        } else if constexpr (std::is_same_v<M, proto::PcacheAdmin>) {
          proto::PcacheAdminResp resp;
          resp.reqId = m.reqId;
          resp.err = proto::XrdErr::kInvalid;
          fabric_.Send(config_.addr, from, std::move(resp));
        } else {
          // Data-path frames (read/write/close) never arrive here: the
          // meta redirects before any handle exists.
        }
      },
      std::move(message));
}

void MetaManager::HandleLogin(net::NodeAddr from, const proto::CmsLogin& m) {
  proto::CmsLoginResp resp;
  const auto result = core_.Admit(from, m.name, m.exports, m.allowWrite,
                                  /*isSupervisor=*/false);
  if (!result.has_value()) {
    // 64 clusters per meta; federations grow by stacking metas, which is
    // out of scope here — fail loudly rather than silently dropping.
    resp.ok = false;
    resp.error = "federation set full";
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  locality_[result->slot] = m.locality;
  core_.membership().ReportLoad(result->slot, EffectiveLoad(result->slot, 0),
                                std::uint64_t{1} << 40);
  fm_.subscribes.Inc();
  resp.ok = true;
  resp.slot = result->slot;
  fabric_.Send(config_.addr, from, std::move(resp));
}

void MetaManager::HandleOpen(net::NodeAddr from, const proto::XrdOpen& m) {
  fm_.locates.Inc();
  // The avoid address is meaningful here only when it names a cluster
  // head; a failing data server inside a cluster is that head's problem.
  // A creation lands in a writable cluster (locality-weighted), and that
  // cluster's head picks the actual server.
  core_.Answer<proto::XrdOpenResp>(from, m.reqId, m.path,
                                   core_.OptionsFor(m.mode, m.refresh, m.avoidNode),
                                   {&fm_.redirects, &fm_.waits, &fm_.notFound}, m.create);
}

}  // namespace scalla::fed
