// Federation open latency: a client holding only the meta-head address
// opens files spread across 1 / 2 / 4 member clusters. The two-hop walk
// (meta -> cluster head -> data server) adds one cached tree level per
// open, so warm latency should stay flat as clusters are added — the
// meta resolves the owning cluster from its name cache in O(1) — while
// cold opens pay one extra CmsQuery round trip, the meta's.
//
// Output: a human table plus one JSON line (machine-scrapable) with
// per-shape warm/cold means and the meta's cache hit rate.
#include "bench/bench_common.h"
#include "sim/federation.h"
#include "obs/metrics.h"

namespace scalla {
namespace {

using bench::Fmt;
using sim::FederationSpec;
using sim::SimFederation;

struct ShapeResult {
  int clusters = 0;
  double coldUs = 0;
  double warmUs = 0;
  double hitRate = 0;
};

ShapeResult Measure(int clusters, int filesPerCluster) {
  FederationSpec spec;
  spec.clusters = clusters;
  spec.cluster.servers = 4;
  SimFederation fed(spec);

  std::vector<std::string> paths;
  for (int c = 0; c < clusters; ++c) {
    for (int f = 0; f < filesPerCluster; ++f) {
      std::string path =
          "/store/c" + std::to_string(c) + "/f" + std::to_string(f);
      fed.PlaceFile(static_cast<std::size_t>(c), static_cast<std::size_t>(f % 4),
                    path, "x");
      paths.push_back(std::move(path));
    }
  }
  fed.Start();
  auto& client = fed.NewClient();

  obs::Histogram cold, warm;
  for (const auto& path : paths) {
    const TimePoint t0 = fed.engine().Now();
    const auto open = fed.OpenAndWait(client, path, cms::AccessMode::kRead, false);
    if (open.err == proto::XrdErr::kNone) cold.Record(fed.engine().Now() - t0);
  }
  for (const auto& path : paths) {
    const TimePoint t0 = fed.engine().Now();
    const auto open = fed.OpenAndWait(client, path, cms::AccessMode::kRead, false);
    if (open.err == proto::XrdErr::kNone) warm.Record(fed.engine().Now() - t0);
  }

  const auto snap = fed.meta().SnapshotMetrics();
  const double lookups = static_cast<double>(snap.Counter("cache.lookups"));
  ShapeResult r;
  r.clusters = clusters;
  r.coldUs = cold.MeanNanos() / 1e3;
  r.warmUs = warm.MeanNanos() / 1e3;
  r.hitRate = lookups > 0 ? snap.Counter("cache.hits") / lookups : 0;
  return r;
}

}  // namespace
}  // namespace scalla

int main() {
  scalla::bench::PrintHeader(
      "F01", "federation open latency vs member cluster count",
      "warm opens flat as clusters are added (meta cache is O(1)); cold "
      "opens pay one extra query round trip");

  constexpr int kFilesPerCluster = 64;
  std::vector<scalla::ShapeResult> results;
  scalla::bench::Table table(
      {"clusters", "files", "warm open", "cold open", "meta hit rate"});
  for (const int clusters : {1, 2, 4}) {
    const auto r = scalla::Measure(clusters, kFilesPerCluster);
    results.push_back(r);
    table.AddRow({scalla::bench::Fmt("%d", r.clusters),
                  scalla::bench::Fmt("%d", clusters * kFilesPerCluster),
                  scalla::bench::Fmt("%.1fus", r.warmUs),
                  scalla::bench::Fmt("%.1fus", r.coldUs),
                  scalla::bench::Fmt("%.1f%%", r.hitRate * 100)});
  }
  table.Print();

  std::string runsJson = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (i > 0) runsJson += ",";
    runsJson += "{\"clusters\":" + std::to_string(r.clusters) +
                ",\"warm_open_us\":" + std::to_string(r.warmUs) +
                ",\"cold_open_us\":" + std::to_string(r.coldUs) +
                ",\"meta_hit_rate\":" + std::to_string(r.hitRate) + "}";
  }
  runsJson += "]";
  std::printf("\nJSON %s\n",
              ("{\"bench\":\"federation\",\"files_per_cluster\":" +
               std::to_string(kFilesPerCluster) + ",\"runs\":" + runsJson + "}")
                  .c_str());

  // Warm latency must not grow with cluster count (within 25% of the
  // single-cluster baseline) and every shape must keep a warm cache.
  bool ok = true;
  for (const auto& r : results) {
    ok &= r.warmUs <= results.front().warmUs * 1.25;
    ok &= r.hitRate > 0.3;
  }
  std::printf("federated open latency independent of cluster count: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
