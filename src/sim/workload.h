// Workload generation and measurement over a SimCluster: file population
// with configurable replication, Zipf-popularity open streams, and a
// closed-loop multi-client load driver — the synthetic stand-ins for the
// paper's HEP analysis traffic (section II-A: "several meta-data
// operations on dozens of files per job", thousands of transactions/s).
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "obs/snapshot.h"
#include "sim/cluster.h"
#include "util/rng.h"

namespace scalla::sim {

/// Seeds `nFiles` distinct files, each replicated on `replication` random
/// distinct leaves. Returns the paths ("/store/data/runNNN/fileNNN.root").
std::vector<std::string> PopulateFiles(SimCluster& cluster, std::size_t nFiles,
                                       int replication, util::Rng& rng,
                                       std::size_t fileSize = 0);

struct WorkloadResult {
  obs::HistogramStat latency;  // client-observed open latency (virtual time)
  std::size_t completed = 0;
  std::size_t errors = 0;
  // Simulated time the workload spanned (engine clock delta) vs host time
  // spent computing it. Campaign JSON reports both under distinct keys so
  // a loaded CI machine can never flip a latency claim check: every claim
  // is judged on simElapsed / recorded virtual latencies, wallSeconds is
  // informational only.
  Duration simElapsed = Duration::zero();
  double wallSeconds = 0;
};

/// Sequential open stream from one client; file choice is Zipf(s) over
/// `paths` (s = 0 -> uniform). Each open is driven to completion before
/// the next (pure latency measurement, no queueing).
WorkloadResult RunOpenStream(SimCluster& cluster, client::ScallaClient& client,
                             const std::vector<std::string>& paths, std::size_t nOps,
                             double zipfS, util::Rng& rng);

/// Closed-loop load: each of `clients` keeps one open outstanding (a
/// completion closes the file and issues the next) until `totalOps` opens
/// have finished. Each open draws a Zipf(zipfS) index over `paths`;
/// `pick`, when set, is called once per open in issue order and maps that
/// draw to the index to open (campaigns rotate it per client identity).
WorkloadResult RunClosedLoop(SimCluster& cluster,
                             const std::vector<client::ScallaClient*>& clients,
                             const std::vector<std::string>& paths, std::size_t totalOps,
                             double zipfS, util::Rng& rng,
                             const std::function<std::size_t(std::size_t)>& pick = nullptr);

/// RunClosedLoop over `nClients` new clients. This is how the "redirection
/// time rises with a very low linear slope as load increases" claim
/// (section II-B5) is measured: offered load scales with the client count.
WorkloadResult RunClosedLoopLoad(SimCluster& cluster, std::size_t nClients,
                                 const std::vector<std::string>& paths,
                                 std::size_t totalOps, double zipfS, util::Rng& rng);

/// Host seconds elapsed since `start`.
double WallSecondsSince(std::chrono::steady_clock::time_point start);

}  // namespace scalla::sim
