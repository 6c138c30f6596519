// E11 — Figure 1 / sections II-B1 and VI: nodes cluster in sets of 64
// arranged in a 64-ary tree; locating a file costs O(1) per level, so the
// upper bound is O(log64(servers)) — "as the number of nodes increases,
// search performance increases at an exponential rate" (capacity grows
// exponentially in the depth while the search cost grows linearly in it).
#include <cmath>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "sim/cluster.h"
#include "sim/workload.h"

namespace scalla {
namespace {

using bench::Fmt;

struct Point {
  int depth = 0;
  int hops = 0;
  double warmUs = 0;
  double coldUs = 0;
};

Point Measure(int servers, int fanout, std::size_t files) {
  sim::ClusterSpec spec;
  spec.servers = servers;
  spec.fanout = fanout;
  sim::SimCluster cluster(spec);
  cluster.Start();
  util::Rng rng(31);
  const auto paths = sim::PopulateFiles(cluster, files, 1, rng);
  auto& client = cluster.NewClient();

  Point p;
  p.depth = cluster.Depth();
  obs::Histogram cold, warm;
  int hops = 0;
  for (const auto& path : paths) {
    const TimePoint t0 = cluster.engine().Now();
    const auto open = cluster.OpenAndWait(client, path, cms::AccessMode::kRead, false);
    if (open.err == proto::XrdErr::kNone) {
      cold.Record(cluster.engine().Now() - t0);
      hops = std::max(hops, open.redirects);
    }
  }
  for (const auto& path : paths) {
    const TimePoint t0 = cluster.engine().Now();
    const auto open = cluster.OpenAndWait(client, path, cms::AccessMode::kRead, false);
    if (open.err == proto::XrdErr::kNone) warm.Record(cluster.engine().Now() - t0);
  }
  p.hops = hops;
  p.warmUs = warm.MeanNanos() / 1e3;
  p.coldUs = cold.MeanNanos() / 1e3;
  return p;
}

}  // namespace
}  // namespace scalla

int main() {
  using namespace scalla;
  bench::PrintHeader(
      "E11", "64-ary tree scaling: hops and latency vs cluster size",
      "O(log64 N) levels; O(1) per level; capacity grows exponentially with "
      "depth while search cost grows only linearly in it");

  Point biggest;
  {
    std::printf("Production shape (fanout 64):\n\n");
    bench::Table table({"servers", "depth", "redirect hops", "warm open",
                        "cold open", "log64(N) bound"});
    for (const int servers : {4, 64, 256, 1024, 4096}) {
      const auto p = Measure(servers, 64, 32);
      if (servers == 4096) biggest = p;
      table.AddRow({Fmt("%d", servers), Fmt("%d", p.depth), Fmt("%d", p.hops),
                    Fmt("%.1fus", p.warmUs), Fmt("%.1fus", p.coldUs),
                    Fmt("%.2f", std::log(static_cast<double>(servers)) / std::log(64.0))});
    }
    table.Print();
  }

  {
    std::printf("Depth sweep at fixed 64 servers (shrinking the fanout adds\n"
                "levels; per-level cost stays constant):\n\n");
    bench::Table table({"fanout", "depth", "warm open", "warm per level"});
    for (const int fanout : {64, 8, 4, 2}) {
      const auto p = Measure(64, fanout, 32);
      table.AddRow({Fmt("%d", fanout), Fmt("%d", p.depth), Fmt("%.1fus", p.warmUs),
                    Fmt("%.1fus", p.warmUs / p.depth)});
    }
    table.Print();
    std::printf("A 64-ary tree reaches 64^2=4096 servers at depth 2 and 64^3=262144\n"
                "at depth 3 — the \"exceptionally good value\" the paper cites.\n\n");
  }
  // Virtual-clock latencies at the biggest production shape (4096 servers).
  std::printf("\nJSON {\"bench\":\"tree_scaling\",\"servers\":4096,"
              "\"depth\":%d,\"hops\":%d,\"warm_open_us\":%.1f,\"cold_open_us\":%.1f}\n",
              biggest.depth, biggest.hops, biggest.warmUs, biggest.coldUs);
  return 0;
}
