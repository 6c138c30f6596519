// Scenario factory: declarative campaign descriptions compiled into
// seeded, deterministic discrete-event runs at production scale —
// thousands of servers in multi-level supervisor trees, simulated client
// populations in the millions — with the paper's headline claims attached
// as machine-checked invariants instead of eyeballed bench tables:
//
//   * per-level resolution cost stays O(100us)-shaped as depth grows
//     (section II-B5: "<50us per tree level" on the authors' testbed; our
//     latency model is 25us links + 5us service, so the per-level budget
//     here is ~100us),
//   * correction work per death is O(1) in cached entries (section
//     III-A4: deaths bump a per-slot counter; every cached location is
//     corrected lazily on its next fetch, never eagerly walked),
//   * redirection latency rises with a very low linear slope as offered
//     load increases (section II-B5).
//
// A campaign is pure data (CampaignSpec); RunCampaign builds the cluster,
// seeds the namespace, drives the load phases and fault schedule on
// virtual time, and returns every claim verdict plus a deterministic
// metrics summary — the same seed always produces byte-identical
// MetricsJson() output, which tests/scenario_test.cc pins. The campaign
// library at the bottom covers the scenarios the ROADMAP names: flash
// crowd, open stampede, correlated rack failure, MSS staging storm,
// rolling upgrade, federation-wide partition, and the tier-2
// million-client run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/workload.h"

namespace scalla::sim {

/// One closed-loop load phase: `concurrency` pool actors each keep one
/// open outstanding until the phase has driven `ops` opens.
struct PhaseSpec {
  std::string name;
  std::size_t concurrency = 1;
  std::size_t ops = 1000;
  double zipfS = 0.9;          // popularity skew over the file population
  bool inSlopeFit = false;     // participates in the latency-vs-load fit
};

/// One scheduled fault, applied at the boundary before phase
/// `beforePhase` runs. Crash faults are followed by a quiet settle window
/// (no client traffic) long enough for the heartbeat to declare deaths —
/// the window where the O(1)-correction claim is accounted: any eager
/// cache walk at death time would show up as correction/lookup counter
/// movement with zero opens in flight.
struct FaultSpec {
  enum class Kind {
    // Wedge [firstServer, firstServer+serverCount): the process hangs with
    // its connections intact (correlated power loss looks like silence),
    // so nobody gets OnPeerDown and only the heartbeat can declare the
    // deaths — the path the O(1)-correction claim is about.
    kCrashServers,
    kRestartServers,  // un-wedge; the head's reconnect invitation restores them
    kDrainServers,    // operator drain by cms name ("serverN")
    kRestoreServers,  // undo the drain
  };
  Kind kind = Kind::kCrashServers;
  std::size_t beforePhase = 0;
  std::size_t firstServer = 0;
  std::size_t serverCount = 1;
  Duration settle = std::chrono::seconds(2);
};

/// Aggregate-counter delta bound over the whole campaign (head-tree
/// StatsQuery at start vs end). maxDelta < 0 means unbounded above.
struct CounterCheck {
  std::string counter;
  double minDelta = 0;
  double maxDelta = -1;
};

/// Claim checks; zero / negative bounds disable a check.
struct ClaimChecks {
  // Warm-probe mean open latency divided by tree depth must stay under
  // this many microseconds (the O(100us)-shaped per-level cost).
  double perLevelUsMax = 0;
  // Least-squares slope of phase mean latency (us) vs concurrency over
  // the inSlopeFit phases must stay under this (us per added client).
  double slopeUsPerClientMax = 0;
  // errors / (completed + errors) across all phases; < 0 disables.
  double errorRateMax = -1;
  // Enforce the O(1)-correction accounting on every crash fault: zero
  // correction/lookup movement during the quiet settle window (no eager
  // walk), deaths == crashed servers, and afterwards lazy corrections
  // never exceed lookups.
  bool correctionAccounting = false;
  std::vector<CounterCheck> counters;
};

struct CampaignSpec {
  std::string name;
  std::uint64_t seed = 1;

  // ---- topology ----
  int servers = 64;
  int fanout = 64;
  int managers = 1;
  Duration heartbeat = std::chrono::milliseconds(500);  // cms.ping (0 = off)
  bool withMss = false;
  Duration mssStageDelay = std::chrono::milliseconds(200);
  bool withProxy = false;      // pool actors open through the pcache proxy

  // ---- namespace ----
  std::size_t files = 1024;
  int replication = 2;
  bool filesInMss = false;     // files start MSS-resident (staging storms)

  // ---- client population ----
  // Distinct simulated client identities the arrival process draws from.
  // Identities are multiplexed over a bounded pool of connected endpoints
  // (`pool`), the way millions of analysis jobs funnel through a bounded
  // set of gateway connections; with `personalize` each identity applies
  // its own deterministic rotation to the Zipf stream, so the offered mix
  // genuinely widens as the population grows.
  std::size_t population = 10000;
  std::size_t pool = 64;
  bool personalize = false;

  // Warm probe: after seeding (and optional prewarm), one client re-opens
  // `probeOps` already-located paths to measure the per-level resolution
  // cost with zero queueing. 0 disables the probe (and the per-level check).
  std::size_t probeOps = 256;
  bool prewarm = true;  // open every path once before measuring

  std::vector<PhaseSpec> phases;
  std::vector<FaultSpec> faults;
  ClaimChecks checks;
};

struct PhaseResult {
  std::string name;
  std::size_t concurrency = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;
  double meanUs = 0;
  double p50Us = 0;
  double p99Us = 0;
  // Virtual time the phase spanned vs host time spent computing it; claim
  // checks only ever read the sim side.
  Duration simElapsed = Duration::zero();
  double wallSeconds = 0;
};

/// Accounting around one crash fault (correctionAccounting check).
struct FaultResult {
  std::size_t beforePhase = 0;
  std::size_t crashed = 0;
  std::uint64_t deathsDelta = 0;        // membership.deaths over the settle
  std::uint64_t settleCorrections = 0;  // cache.corrections over the settle
  std::uint64_t settleLookups = 0;      // cache.lookups over the settle
  std::uint64_t postCorrections = 0;    // corrections from fault to campaign end
  std::uint64_t postLookups = 0;        // lookups from fault to campaign end
};

struct CheckResult {
  std::string name;
  bool pass = false;
  double value = 0;
  double bound = 0;
};

struct CampaignResult {
  std::string name;
  std::uint64_t seed = 0;
  int depth = 0;
  std::size_t servers = 0;
  std::size_t supervisors = 0;
  std::size_t population = 0;
  std::size_t distinctIdentities = 0;  // identities that actually issued opens
  std::size_t totalCompleted = 0;
  std::size_t totalErrors = 0;
  double warmPerLevelUs = 0;   // warm-probe mean / depth
  double warmProbeMeanUs = 0;
  double slopeUsPerClient = 0; // fit over inSlopeFit phases (0 when < 2 points)
  std::vector<PhaseResult> phases;
  std::vector<FaultResult> faults;
  std::vector<CheckResult> checks;
  Duration simElapsed = Duration::zero();
  double wallSeconds = 0;

  bool ok() const;
  /// Deterministic summary: everything derived from virtual time and
  /// seeded randomness, nothing from the host clock. Byte-identical for
  /// the same spec + seed (tests/scenario_test.cc pins this).
  std::string MetricsJson() const;
  /// MetricsJson plus host-side wall_seconds, as one bench JSON line.
  std::string JsonLine() const;
};

/// Compiles and runs a campaign on a fresh SimCluster. Deterministic for
/// a fixed spec (all randomness flows from spec.seed; virtual time only).
CampaignResult RunCampaign(const CampaignSpec& spec);

// ---- campaign library (see docs/SCENARIOS.md for the claim map) ----

/// Tier-1 smoke: 64 servers at depth 2, tens of thousands of opens, every
/// claim check on; finishes in a couple of wall seconds.
CampaignSpec SmokeCampaign();
/// Everyone hammers one hot path while the tail keeps background load.
CampaignSpec FlashCrowdCampaign();
/// Cold-path open stampede racing the fast-response queue: many clients
/// open the same unlocated files at the same instant; the queue must
/// coalesce lookups instead of flooding the tree per client.
CampaignSpec OpenStampedeCampaign();
/// A whole rack (contiguous leaf range under one supervisor subtree) dies
/// mid-load; O(1)-correction accounting plus recovery error bounds.
CampaignSpec CorrelatedRackFailureCampaign(std::size_t files = 2048);
/// Cold MSS-resident namespace behind a pcache proxy; a read burst must
/// coalesce stages (at most one per file) instead of stampeding the MSS.
CampaignSpec MssStagingStormCampaign();
/// Drain a rack, keep serving, restore, roll to the next — zero errors
/// and zero heartbeat deaths across the whole upgrade.
CampaignSpec RollingUpgradeCampaign();
/// The ROADMAP item 4 scale point (tier-2): >= 1,000,000 opens from a
/// million-identity population across >= 1,000 servers in a >= 3-level
/// supervisor tree, with a correlated rack failure mid-run and all three
/// paper claims enforced.
CampaignSpec MillionClientCampaign();

/// Federation-wide partition (a SimCluster with spec.clusters = 3): member
/// clusters keep serving while one is partitioned away, the meta sheds it
/// in O(1) on the federation heartbeat, and rejoin restores the global
/// namespace. Returns the same CampaignResult shape.
CampaignResult RunFederationPartitionCampaign(std::uint64_t seed = 11);

/// Name -> runner for every library campaign (bench_campaign and the
/// tier-2 suite iterate this).
using CampaignRunner = std::function<CampaignResult()>;
std::vector<std::pair<std::string, CampaignRunner>> CampaignRegistry();

}  // namespace scalla::sim
