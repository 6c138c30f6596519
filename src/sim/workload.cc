#include "sim/workload.h"

#include <unordered_set>

#include "obs/metrics.h"

namespace scalla::sim {

double WallSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<std::string> PopulateFiles(SimCluster& cluster, std::size_t nFiles,
                                       int replication, util::Rng& rng,
                                       std::size_t fileSize) {
  std::vector<std::string> paths;
  paths.reserve(nFiles);
  const std::size_t nServers = cluster.ServerCount();
  for (std::size_t i = 0; i < nFiles; ++i) {
    std::string path = util::MakeFilePath(i / 1000, i % 1000);
    std::unordered_set<std::size_t> placed;
    const int copies = std::min<int>(replication, static_cast<int>(nServers));
    while (static_cast<int>(placed.size()) < copies) {
      const std::size_t s = rng.NextBelow(nServers);
      if (placed.insert(s).second) {
        cluster.PlaceFile(s, path, std::string(fileSize, 'D'));
      }
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

WorkloadResult RunOpenStream(SimCluster& cluster, client::ScallaClient& client,
                             const std::vector<std::string>& paths, std::size_t nOps,
                             double zipfS, util::Rng& rng) {
  WorkloadResult result;
  obs::Histogram latency;
  const auto wallStart = std::chrono::steady_clock::now();
  const TimePoint simStart = cluster.engine().Now();
  const util::ZipfSampler zipf(paths.size(), zipfS);
  for (std::size_t i = 0; i < nOps; ++i) {
    const std::string& path = paths[zipf.Sample(rng)];
    const TimePoint start = cluster.engine().Now();
    const auto outcome = cluster.OpenAndWait(client, path, cms::AccessMode::kRead, false);
    if (outcome.err == proto::XrdErr::kNone) {
      latency.Record(cluster.engine().Now() - start);
      ++result.completed;
      (void)cluster.CloseAndWait(client, outcome.file, std::chrono::seconds(5));
    } else {
      ++result.errors;
    }
  }
  result.latency = latency.Digest();
  result.simElapsed = cluster.engine().Now() - simStart;
  result.wallSeconds = WallSecondsSince(wallStart);
  return result;
}

WorkloadResult RunClosedLoop(SimCluster& cluster,
                             const std::vector<client::ScallaClient*>& clients,
                             const std::vector<std::string>& paths, std::size_t totalOps,
                             double zipfS, util::Rng& rng,
                             const std::function<std::size_t(std::size_t)>& pick) {
  WorkloadResult result;
  obs::Histogram latency;
  const auto wallStart = std::chrono::steady_clock::now();
  const TimePoint simStart = cluster.engine().Now();
  const util::ZipfSampler zipf(paths.size(), zipfS);
  std::size_t issued = 0;

  // Each completion immediately issues the next open; captures reference
  // state that outlives every callback (function-local, driven below).
  std::function<void(client::ScallaClient*)> issueNext = [&](client::ScallaClient* client) {
    if (issued >= totalOps) return;
    ++issued;
    const std::size_t drawn = zipf.Sample(rng);
    const std::string& path = paths[pick ? pick(drawn) : drawn];
    const TimePoint start = cluster.engine().Now();
    client->Open(path, cms::AccessMode::kRead, false,
                 [&, client, start](const client::OpenOutcome& o) {
                   if (o.err == proto::XrdErr::kNone) {
                     latency.Record(cluster.engine().Now() - start);
                     ++result.completed;
                     client->Close(o.file, [](proto::XrdErr) {});
                   } else {
                     ++result.errors;
                   }
                   issueNext(client);
                 });
  };

  for (client::ScallaClient* client : clients) issueNext(client);
  cluster.engine().RunUntilPredicate(
      [&] { return result.completed + result.errors >= totalOps; },
      cluster.engine().Now() + std::chrono::hours(12));
  result.latency = latency.Digest();
  result.simElapsed = cluster.engine().Now() - simStart;
  result.wallSeconds = WallSecondsSince(wallStart);
  return result;
}

WorkloadResult RunClosedLoopLoad(SimCluster& cluster, std::size_t nClients,
                                 const std::vector<std::string>& paths,
                                 std::size_t totalOps, double zipfS, util::Rng& rng) {
  std::vector<client::ScallaClient*> clients;
  clients.reserve(nClients);
  for (std::size_t i = 0; i < nClients; ++i) clients.push_back(&cluster.NewClient());
  return RunClosedLoop(cluster, clients, paths, totalOps, zipfS, rng);
}

}  // namespace scalla::sim
