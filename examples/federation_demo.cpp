// Federation demo: two independent Scalla clusters under one meta-manager
// that clusters the clusters. A client holding ONLY the meta address
// opens files in either cluster: the meta is a manager whose members are
// cluster heads, so it resolves the owning cluster with the same code a
// manager runs for servers — one level up — and redirects to that
// cluster's head.
//
//   $ ./federation_demo
//
// The same wiring runs over real TCP: start two clusters of
// scalla_daemon processes whose manager configs carry `fed.meta`, one
// daemon with `all.role meta`, and point scalla_cli --head at the meta
// (see docs/FEDERATION.md).
#include <cstdio>

#include "sim/cluster.h"

using namespace scalla;

int main() {
  // 1. Two clusters x 3 data servers, their heads logged into one
  //    meta-manager: the plan's head (manager 0), then each cluster's
  //    manager and servers in turn.
  //    Cluster 1 is "farther" (locality 2), so when both clusters hold a
  //    replica the meta prefers cluster 0.
  sim::ClusterSpec spec;
  spec.clusters = 2;
  spec.servers = 3;
  spec.cms.deadline = std::chrono::seconds(1);  // snappier demo
  spec.localities = {0, 2};

  sim::SimCluster fed(spec);
  // Pre-place a file in each cluster (as a transfer system would): cluster
  // c's servers are server(c * 3) .. server(c * 3 + 2).
  fed.PlaceFile(0, "/store/west.root", "data in cluster 0");
  fed.PlaceFile(3 + 2, "/store/east.root", "data in cluster 1");
  fed.Start();
  xrd::ScallaNode& meta = fed.head();
  const net::NodeAddr metaAddr = meta.config().addr;
  std::printf("federation up: %d clusters behind the meta (heads logged in: %s, %s)\n",
              spec.clusters, fed.manager(1).LoggedInTo(metaAddr) ? "yes" : "no",
              fed.manager(2).LoggedInTo(metaAddr) ? "yes" : "no");

  // 2. One client, one address — the meta's. It can reach both files.
  client::ScallaClient& client = fed.NewClient();
  for (const char* path : {"/store/west.root", "/store/east.root"}) {
    const Result<std::string> data = fed.ReadAll(client, path);
    const auto open = fed.OpenAndWait(client, path, cms::AccessMode::kRead, false);
    std::printf("open %s: \"%s\" via node %u (%d redirect hops: meta -> head -> server)\n",
                path, data ? data.value().c_str() : "FAILED", open.file.node,
                open.redirects);
  }

  // 3. Creation through the meta: it picks a writable cluster, the file
  //    lands on one of its servers, and the new location digests back up
  //    (server -> cluster head -> meta).
  const Result<void> put = fed.PutFile(client, "/store/new.root", "born federated");
  std::printf("create /store/new.root through the meta: %s\n",
              put ? "ok" : put.error().message.c_str());

  // 4. The meta's own view, under the names every head exports: head
  //    logins, resolutions, redirects, cached locations.
  const auto snap = meta.SnapshotMetrics();
  std::printf("meta: %lld member clusters, %llu head logins, %llu locates, "
              "%llu redirects, cache hit rate %.0f%%\n",
              static_cast<long long>(snap.Gauge("node.members")),
              static_cast<unsigned long long>(snap.Counter("node.logins_accepted")),
              static_cast<unsigned long long>(snap.Counter("resolver.locates")),
              static_cast<unsigned long long>(snap.Counter("node.redirects_issued")),
              100.0 * snap.Counter("cache.hits") /
                  std::max<std::uint64_t>(1, snap.Counter("cache.lookups")));

  // 5. Federation-wide stats: one StatsQuery at the meta fans out to
  //    every cluster head and folds the whole tree.
  const auto stats = fed.ClusterStats(&client);
  std::printf("federation stats: %u nodes folded (the meta and %d cluster trees)\n",
              stats.nodeCount, spec.clusters);
  return 0;
}
