// analysis_farm: the workload Scalla was built for (paper section II-A) —
// a BaBar-style analysis campaign. Hundreds of jobs each perform
// "several meta-data operations on dozens of files" before reading event
// data; files live on many servers, some replicated, some still on the
// Mass Storage System. The example shows:
//   - parallel prepare hiding the staging/lookup delays (section III-B2),
//   - the location cache turning a query-flood-per-file into cached
//     redirects for the rest of the campaign,
//   - replica spreading across servers.
//
//   $ ./analysis_farm [jobs] [filesPerJob]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "obs/metrics.h"
#include "sim/cluster.h"
#include "sim/workload.h"
#include "util/stats.h"

using namespace scalla;

int main(int argc, char** argv) {
  const int jobs = argc > 1 ? std::atoi(argv[1]) : 40;
  const int filesPerJob = argc > 2 ? std::atoi(argv[2]) : 24;

  // A 32-server farm; a tenth of the data set is still on tape.
  sim::ClusterSpec spec;
  spec.servers = 32;
  spec.withMss = true;
  spec.mss.stageDelay = std::chrono::seconds(45);
  spec.cms.deadline = std::chrono::seconds(2);
  sim::SimCluster cluster(spec);
  cluster.Start();

  util::Rng rng(2001);  // the year BaBar switched to flat files
  const std::size_t nFiles = 800;
  std::vector<std::string> dataset;
  for (std::size_t i = 0; i < nFiles; ++i) {
    const std::string path = util::MakeFilePath(i / 100, i % 100);
    if (i % 10 == 0) {
      cluster.mssStorage(rng.NextBelow(32))->PutInMss(path, 4096);  // on tape
    } else {
      const int replicas = 1 + static_cast<int>(rng.NextBelow(3));
      for (int r = 0; r < replicas; ++r) {
        cluster.PlaceFile(rng.NextBelow(32), path, std::string(4096, 'E'));
      }
    }
    dataset.push_back(path);
  }
  std::printf("dataset: %zu files on %zu servers (10%% MSS-resident)\n\n",
              dataset.size(), cluster.ServerCount());

  // Each job: pick its file list, PREPARE it, then open/read/close each.
  const util::ZipfSampler zipf(dataset.size(), 0.8);
  obs::Histogram jobTimes;
  std::map<net::NodeAddr, int> serverHits;
  std::size_t opens = 0, errors = 0;

  const TimePoint campaignStart = cluster.engine().Now();
  for (int j = 0; j < jobs; ++j) {
    client::ScallaClient& job = cluster.NewClient();
    std::vector<std::string> wanted;
    for (int f = 0; f < filesPerJob; ++f) wanted.push_back(dataset[zipf.Sample(rng)]);

    const TimePoint jobStart = cluster.engine().Now();
    // Announce the file list: the cluster resolves and stages in parallel.
    (void)cluster.PrepareAndWait(job, wanted, cms::AccessMode::kRead);

    for (const auto& path : wanted) {
      const auto open = cluster.OpenAndWait(job, path, cms::AccessMode::kRead, false,
                                            std::chrono::minutes(5));
      if (open.err != proto::XrdErr::kNone) {
        ++errors;
        continue;
      }
      ++opens;
      ++serverHits[open.file.node];
      std::optional<proto::XrdErr> closed;
      job.Close(open.file, [&closed](proto::XrdErr e) { closed = e; });
      cluster.engine().RunUntilPredicate([&closed] { return closed.has_value(); },
                                         cluster.engine().Now() + std::chrono::seconds(5));
    }
    jobTimes.Record(cluster.engine().Now() - jobStart);
  }
  const double campaignSeconds =
      std::chrono::duration<double>(cluster.engine().Now() - campaignStart).count();

  std::printf("campaign: %d jobs x %d files -> %zu opens, %zu errors in %.1fs "
              "of cluster time\n",
              jobs, filesPerJob, opens, errors, campaignSeconds);
  const obs::HistogramStat jobTime = jobTimes.Digest();
  std::printf("job wall time: n=%llu mean=%s p50=%s p99=%s max=%s\n",
              static_cast<unsigned long long>(jobTime.count),
              util::FormatNanos(jobTime.MeanNanos()).c_str(),
              util::FormatNanos(static_cast<double>(jobTime.Percentile(0.5))).c_str(),
              util::FormatNanos(static_cast<double>(jobTime.Percentile(0.99))).c_str(),
              util::FormatNanos(static_cast<double>(jobTime.maxNanos)).c_str());

  const auto rs = cluster.head().resolver().GetStats();
  std::printf("\nmanager resolver: %zu locates, %zu served from cache, "
              "%zu fast redirects, %zu query floods (%zu messages)\n",
              rs.locates, rs.redirects, rs.fastRedirects, rs.queriesSent,
              rs.queryMessages);
  const auto cs = cluster.head().cache().GetStats();
  std::printf("location cache: %zu objects, %zu-bucket table, %zu rehashes, "
              "hit rate %.1f%%\n",
              cs.liveObjects, cs.buckets, cs.rehashes,
              100.0 * static_cast<double>(cs.hits) / static_cast<double>(cs.lookups));

  std::printf("\nload spread over data servers (opens per server):\n  ");
  for (std::size_t s = 0; s < cluster.ServerCount(); ++s) {
    std::printf("%d ", serverHits[cluster.server(s).config().addr]);
  }
  std::printf("\n");
  return 0;
}
