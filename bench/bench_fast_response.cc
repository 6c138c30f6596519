// E07 — section III-B1: the fast response queue lowers the delay for an
// unknown (but existing) file from the 5s full delay to roughly the time
// it takes any one server to respond (~100us), with the 133ms sweep as the
// safety bound. We measure first-open latency with the mechanism on vs off
// (ablation), and show the sweep bound engaging when servers respond
// slower than 133ms.
#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "sim/cluster.h"
#include "sim/workload.h"

namespace scalla {
namespace {

using bench::Fmt;

double MeanFirstOpenUs(bool fastResponse, Duration linkLatency, std::size_t files,
                       double* p99 = nullptr, double* maxUs = nullptr) {
  sim::ClusterSpec spec;
  spec.servers = 16;
  spec.cms.fastResponse = fastResponse;
  spec.latency.linkLatency = linkLatency;
  sim::SimCluster cluster(spec);
  cluster.Start();
  util::Rng rng(21);
  const auto paths = sim::PopulateFiles(cluster, files, 1, rng);
  auto& client = cluster.NewClient();
  obs::Histogram rec;
  for (const auto& path : paths) {
    const TimePoint t0 = cluster.engine().Now();
    const auto open = cluster.OpenAndWait(client, path, cms::AccessMode::kRead, false,
                                          std::chrono::minutes(2));
    if (open.err == proto::XrdErr::kNone) rec.Record(cluster.engine().Now() - t0);
  }
  const obs::HistogramStat latency = rec.Digest();
  if (p99 != nullptr) *p99 = static_cast<double>(latency.Percentile(0.99)) / 1e3;
  if (maxUs != nullptr) *maxUs = static_cast<double>(latency.maxNanos) / 1e3;
  return latency.MeanNanos() / 1e3;
}

}  // namespace
}  // namespace scalla

int main() {
  using namespace scalla;
  bench::PrintHeader(
      "E07", "fast response queue: first-access latency",
      "redirect in ~the fastest server's response time (~100us) instead of "
      "the 5s full delay; requests get up to 133ms before a full wait");

  double fastMeanUs = 0, fullMeanUs = 0;
  {
    std::printf("First open of uncached-but-existing files, 16 servers:\n\n");
    bench::Table table({"fast response queue", "mean first-open", "p99", "speedup"});
    double p99on = 0, p99off = 0;
    const double on = MeanFirstOpenUs(true, std::chrono::microseconds(25), 64, &p99on);
    const double off = MeanFirstOpenUs(false, std::chrono::microseconds(25), 64, &p99off);
    fastMeanUs = on;
    fullMeanUs = off;
    table.AddRow({"on (Scalla)", Fmt("%.0fus", on), Fmt("%.0fus", p99on), "1.0x"});
    table.AddRow({"off (full delay)", Fmt("%.0fus", off), Fmt("%.0fus", p99off),
                  Fmt("%.0fx slower", off / on)});
    table.Print();
  }

  {
    std::printf("The 133ms sweep bound: slower and slower server responses.\n"
                "Below the bound the client is released by the response; past it\n"
                "the anchor expires and the client pays the full delay instead.\n\n");
    bench::Table table({"one-way link latency", "mean first-open", "max first-open",
                        "within sweep bound?"});
    for (const auto link :
         {std::chrono::microseconds(25), std::chrono::microseconds(2500),
          std::chrono::microseconds(40000), std::chrono::microseconds(90000)}) {
      double maxUs = 0;
      const double mean = MeanFirstOpenUs(true, link, 24, nullptr, &maxUs);
      const bool within = 2 * link < std::chrono::milliseconds(133);
      table.AddRow({Fmt("%.1fms", std::chrono::duration<double>(link).count() * 1e3),
                    Fmt("%.1fms", mean / 1e3), Fmt("%.1fms", maxUs / 1e3),
                    within ? "yes" : "borderline/no"});
    }
    table.Print();
    std::printf("Servers answering within ~100us leave a comfortable margin under\n"
                "the 133ms clock, as the paper argues; only pathological latencies\n"
                "push waiters into the full-delay fallback.\n\n");
  }
  // Virtual-clock first-open means at the 25us link point (deterministic).
  std::printf("\nJSON {\"bench\":\"fast_response\",\"fast_mean_us\":%.1f,"
              "\"full_mean_us\":%.1f,\"speedup\":%.1f}\n",
              fastMeanUs, fullMeanUs, fullMeanUs / fastMeanUs);
  return 0;
}
