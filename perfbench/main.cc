// perfbench: wall-clock benchmark of the real TCP request path.
//
//   perfbench --workload warm_open|cold_open|data_mix --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// --trace 0 runs the workload on the plain objects and prints the
// end-to-end metrics. --trace 1 runs it untraced, then again behind the
// tracing wrappers, then the per-layer microbenchmarks, and prints the
// per-layer metrics and the cost table. Either way the last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster.h"
#include "host.h"
#include "micro.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using scalla::obs::MetricsSnapshot;

// Each cluster of a run gets its own port band (below the ephemeral range,
// clear of the bands the tests and bench_fabric use).
constexpr std::uint16_t kPortBase = 12000;
constexpr std::uint16_t kPortStride = 100;
constexpr std::uint16_t kMicroPortBase = 13000;
constexpr int kSetupRepeats = 3;
constexpr auto kRamp = std::chrono::milliseconds(300);
// The window is cut into slices; see BestQuartile.
constexpr std::int64_t kSliceNs = 500'000'000;
constexpr std::size_t kSpanLogPerThread = 20'000;

struct Args {
  WorkloadKind kind = WorkloadKind::kWarmOpen;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string outDir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload warm_open|cold_open|data_mix "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &a.kind)) Usage(("unknown workload " + value).c_str());
      haveWorkload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1 || a.seconds > 60) Usage("--seconds takes 1..60");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.outDir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!haveWorkload) Usage("--workload is required");
  return a;
}

// ------------------------------------------------------------ one run

struct Probe {
  MetricsSnapshot manager;
  MetricsSnapshot proxy;
  std::vector<MetricsSnapshot> clients;
  scalla::net::Fabric::Counters fabric;
  double processCpu = 0;
  std::vector<ThreadCpu> threads;
  ProcStat stat;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct CpuMark {
  std::int64_t atNs = 0;
  double processCpu = 0;
  ProcStat host;
};

struct RunRecord {
  double setupSeconds = 0;
  std::vector<CpuMark> marks;  // slice boundaries, window start to end
  WindowStats window;
  AnswerChecks checks;
  Probe before;
  Probe after;
  std::vector<ExecutorThread> executors;
  std::vector<Check> validation;

  std::uint64_t Manager(const char* name) const {
    return after.manager.Counter(name) - before.manager.Counter(name);
  }
  std::uint64_t Proxy(const char* name) const {
    return after.proxy.Counter(name) - before.proxy.Counter(name);
  }
  std::uint64_t Clients(const char* name) const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < after.clients.size(); ++i) {
      sum += after.clients[i].Counter(name) - before.clients[i].Counter(name);
    }
    return sum;
  }
  std::uint64_t FabricDelta(std::uint64_t scalla::net::Fabric::Counters::*field) const {
    return after.fabric.*field - before.fabric.*field;
  }
  double ProcessCpu() const { return after.processCpu - before.processCpu; }
  /// CPU seconds of each thread alive at both ends of the window.
  std::map<int, double> ThreadCpuDelta() const {
    std::map<int, double> start;
    for (const auto& t : before.threads) start[t.tid] = t.cpuSeconds;
    std::map<int, double> out;
    for (const auto& t : after.threads) {
      if (auto it = start.find(t.tid); it != start.end()) out[t.tid] = t.cpuSeconds - it->second;
    }
    return out;
  }
  double Ops() const { return static_cast<double>(std::max<std::uint64_t>(window.completed, 1)); }
};

ClusterOptions OptionsFor(WorkloadKind kind, int slot, Tracer* tracer) {
  ClusterOptions o;
  o.basePort = static_cast<std::uint16_t>(kPortBase + kPortStride * slot);
  o.tracer = tracer;
  if (kind == WorkloadKind::kDataMix) {
    o.clients = 2;
    o.client0Head = kProxyAddr;
    o.proxy = true;
    o.proxyDramBytes = kProxyDramBytes;
    o.proxyDiskBytes = kProxyDiskBytes;
  }
  return o;
}

Probe TakeProbe(Cluster& cluster, int clients) {
  Probe p;
  p.manager = cluster.ManagerMetrics();
  p.proxy = cluster.ProxyMetrics();
  for (int i = 0; i < clients; ++i) p.clients.push_back(cluster.ClientMetrics(i));
  p.fabric = cluster.Fabric().GetCounters();
  p.processCpu = ProcessCpuSeconds();
  p.threads = ReadThreadCpu();
  p.stat = ReadProcStat();
  return p;
}

std::string Fmt(const char* fmt, double a, double b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// Self-validation from public counters: a run that fails these did not
// exercise the path its workload names, so it is invalid, not slow.
std::vector<Check> Validate(WorkloadKind kind, const RunRecord& r, const Tracer* tracer) {
  std::vector<Check> v;
  const double ops = static_cast<double>(r.window.completed);
  v.push_back({"error_rate == 0", r.window.failed == 0 && r.checks.failed == 0,
               Fmt("window failures %.0f, all phases %.0f", static_cast<double>(r.window.failed),
                   static_cast<double>(r.checks.failed))});
  const std::uint64_t netFailures = r.FabricDelta(&scalla::net::Fabric::Counters::messagesDropped) +
                                    r.FabricDelta(&scalla::net::Fabric::Counters::queueOverflows) +
                                    r.FabricDelta(&scalla::net::Fabric::Counters::reconnects);
  v.push_back({"no fabric drops, overflows or reconnects", netFailures == 0,
               Fmt("%.0f", static_cast<double>(netFailures))});
  switch (kind) {
    case WorkloadKind::kWarmOpen: {
      const double lookups = static_cast<double>(r.Manager("cache.lookups"));
      const double hitRatio = lookups > 0 ? static_cast<double>(r.Manager("cache.hits")) / lookups : 0;
      v.push_back({"cms.cache_hit_ratio >= 0.99", hitRatio >= 0.99, Fmt("%.5f", hitRatio)});
      v.push_back({"exactly one redirect per open",
                   r.checks.unexpectedRedirects == 0 && r.checks.waits == 0,
                   Fmt("%.0f opens off the cached-redirect path",
                       static_cast<double>(r.checks.unexpectedRedirects + r.checks.waits))});
      const double floods = static_cast<double>(r.Manager("resolver.queries_sent"));
      v.push_back({"no query floods", floods == 0, Fmt("%.0f floods", floods)});
      break;
    }
    case WorkloadKind::kColdOpen: {
      const double hits = static_cast<double>(r.Manager("cache.hits"));
      v.push_back({"zero cache hits", hits == 0, Fmt("%.0f hits", hits)});
      // Snapshots are taken between the manager's handlers, so floods and
      // the opens it resolved match exactly.
      const double floods = static_cast<double>(r.Manager("resolver.queries_sent"));
      const double locates = static_cast<double>(r.Manager("resolver.locates"));
      v.push_back({"one flood per open", floods == locates && locates > 0,
                   Fmt("%.0f floods for %.0f opens", floods, locates)});
      const double delays = static_cast<double>(r.Manager("resolver.full_delays"));
      v.push_back({"zero full delays", delays == 0 && r.checks.waits == 0,
                   Fmt("%.0f full delays", delays)});
      break;
    }
    case WorkloadKind::kDataMix: {
      const double dram = static_cast<double>(r.Proxy("pcache.dram.hits"));
      const double disk = static_cast<double>(r.Proxy("pcache.disk.hits"));
      const double origin = static_cast<double>(r.Proxy("pcache.origin_fetches"));
      v.push_back({"DRAM hits, disk hits and origin fetches all nonzero",
                   dram > 0 && disk > 0 && origin > 0,
                   Fmt("dram %.0f disk %.0f", dram, disk) + Fmt(" origin %.0f", origin)});
      const double share = ops > 0 ? static_cast<double>(r.window.writes) / ops : 0;
      v.push_back({"writes are 1/4 of operations", std::fabs(share - 0.25) <= 0.01,
                   Fmt("write share %.4f", share)});
      v.push_back({"every written block reads back from its leaf oss",
                   r.checks.readBackMismatches == 0 && r.checks.readBackBlocks > 0,
                   Fmt("%.0f of %.0f blocks differ", static_cast<double>(r.checks.readBackMismatches),
                       static_cast<double>(r.checks.readBackBlocks))});
      break;
    }
  }
  if (tracer != nullptr) {
    v.push_back({"trace complete (every delivery matched its send)", !tracer->IsVoid(),
                 tracer->VoidReason()});
  }
  return v;
}

RunRecord RunWorkload(const Args& args, int slot, Tracer* tracer) {
  RunRecord rec;
  const std::int64_t t0 = NowNs();
  Cluster cluster(OptionsFor(args.kind, slot, tracer));
  const Namespace ns(args.seed);
  LoadGen load(args.kind, ns, cluster, tracer);
  load.PlaceNamespace();
  load.WarmUp();
  rec.setupSeconds = static_cast<double>(NowNs() - t0) * 1e-9;

  const int clients = args.kind == WorkloadKind::kDataMix ? 2 : 1;
  load.Start();
  std::this_thread::sleep_for(kRamp);
  rec.before = TakeProbe(cluster, clients);
  if (tracer != nullptr) tracer->SetRecording(true);
  const std::int64_t start = load.BeginWindow();
  rec.marks.push_back({start, ProcessCpuSeconds(), ReadProcStat()});
  const std::int64_t slices = args.seconds * 1'000'000'000LL / kSliceNs;
  for (std::int64_t i = 1; i < slices; ++i) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(start + i * kSliceNs)));
    rec.marks.push_back({NowNs(), ProcessCpuSeconds(), ReadProcStat()});
  }
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(start + slices * kSliceNs)));
  rec.marks.push_back({load.EndWindow(), ProcessCpuSeconds(), ReadProcStat()});
  if (tracer != nullptr) tracer->SetRecording(false);
  rec.after = TakeProbe(cluster, clients);
  load.Stop();
  load.ReadBackWrites();
  rec.window = load.Window();
  rec.checks = load.Checks();
  rec.executors = cluster.Threads();
  rec.validation = Validate(args.kind, rec, tracer);
  return rec;
}

double SetupOnly(const Args& args, int slot) {
  const std::int64_t t0 = NowNs();
  Cluster cluster(OptionsFor(args.kind, slot, nullptr));
  const Namespace ns(args.seed);
  LoadGen load(args.kind, ns, cluster, nullptr);
  load.PlaceNamespace();
  load.WarmUp();
  const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  if (load.Checks().failed != 0) Fatal("set-up failed: " + load.Checks().firstError);
  return seconds;
}

// ------------------------------------------------------------ metrics

double Percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1]);
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() % 2 == 1 ? v[v.size() / 2] : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct ThreadClasses {
  std::map<int, std::string> executorRole;  // tid -> role
  std::set<int> loops;                       // reactor loop threads
};

ThreadClasses Classify(const RunRecord& r) {
  ThreadClasses c;
  for (const auto& e : r.executors) c.executorRole[e.tid] = e.role;
  const int mainTid = static_cast<int>(::getpid());
  for (const auto& [tid, cpu] : r.ThreadCpuDelta()) {
    (void)cpu;
    if (tid != mainTid && c.executorRole.count(tid) == 0) c.loops.insert(tid);
  }
  return c;
}

double RoleCpu(const RunRecord& r, const ThreadClasses& c, const std::string& prefix, int* n) {
  double sum = 0;
  *n = 0;
  for (const auto& [tid, cpu] : r.ThreadCpuDelta()) {
    auto it = c.executorRole.find(tid);
    if (it != c.executorRole.end() && it->second.rfind(prefix, 0) == 0) {
      sum += cpu;
      ++*n;
    }
  }
  return sum;
}

struct SliceStats {
  double opsPerS = 0;
  double openP50 = 0;
  double openP90 = 0;
  double openP99 = 0;
  double opP50 = 0;
  double opP90 = 0;
  double opP99 = 0;
  double cpuUsPerOp = 0;
};

std::vector<SliceStats> Slices(const RunRecord& r) {
  std::vector<OpSample> samples = r.window.samples;
  std::sort(samples.begin(), samples.end(),
            [](const OpSample& a, const OpSample& b) { return a.endNs < b.endNs; });
  std::vector<SliceStats> out;
  std::size_t next = 0;
  for (std::size_t i = 0; i + 1 < r.marks.size(); ++i) {
    const CpuMark& from = r.marks[i];
    const CpuMark& to = r.marks[i + 1];
    std::vector<std::int64_t> open;
    std::vector<std::int64_t> op;
    while (next < samples.size() && samples[next].endNs < to.atNs) {
      if (samples[next].endNs >= from.atNs) {
        open.push_back(samples[next].openNs);
        op.push_back(samples[next].opNs);
      }
      ++next;
    }
    SliceStats st;
    const double n = static_cast<double>(op.size());
    st.opsPerS = n / (static_cast<double>(to.atNs - from.atNs) * 1e-9);
    st.openP50 = Percentile(open, 0.50) * 1e-3;
    st.openP90 = Percentile(open, 0.90) * 1e-3;
    st.openP99 = Percentile(open, 0.99) * 1e-3;
    st.opP50 = Percentile(op, 0.50) * 1e-3;
    st.opP90 = Percentile(op, 0.90) * 1e-3;
    st.opP99 = Percentile(op, 0.99) * 1e-3;
    st.cpuUsPerOp = Ratio((to.processCpu - from.processCpu) * 1e6, n);
    out.push_back(st);
  }
  return out;
}

// Linear-interpolated quantile q of one slice field.
double QuantileOver(const std::vector<SliceStats>& slices, double SliceStats::*field, double q) {
  if (slices.empty()) return 0;
  std::vector<double> v;
  for (const auto& s : slices) v.push_back(s.*field);
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Host interference (steal) only ever slows a slice down, so the gated
// figures are the best quartile of the window's slices: the 75th
// percentile of throughput, the 25th of latency and CPU per operation.
double BestQuartile(const std::vector<SliceStats>& slices, double SliceStats::*field,
                    bool higherIsBetter) {
  return QuantileOver(slices, field, higherIsBetter ? 0.75 : 0.25);
}

std::vector<std::int64_t> Field(const RunRecord& r, std::int64_t OpSample::*field,
                                bool (*keep)(const OpSample&)) {
  std::vector<std::int64_t> v;
  for (const auto& s : r.window.samples) {
    if (keep(s)) v.push_back(s.*field);
  }
  return v;
}

bool AnyOp(const OpSample&) { return true; }
bool ReadOp(const OpSample& s) { return s.kind == OpKind::kRead; }
bool WriteOp(const OpSample& s) { return s.kind == OpKind::kWrite; }

/// The metrics BENCHMARK.json gates. Throughput and the tail percentiles
/// are printed but not gated: with a fixed number of operations in flight
/// throughput is set by mean latency, and both it and the tail follow the
/// host's steal episodes further than any bound allows.
bool Gated(const std::string& name) {
  return name == "setup_s" || name == "open_p50_us" || name == "op_p50_us" ||
         name == "cpu_us_per_op" || name == "rss_mib";
}

/// End-to-end metrics; timings are the best quartile of the window's slices.
std::vector<Metric> EndToEnd(const RunRecord& r, const std::vector<double>& setups) {
  const auto slices = Slices(r);
  return {
      {"setup_s", MedianOf(setups), "s"},
      {"ops_per_s", BestQuartile(slices, &SliceStats::opsPerS, true), "ops/s"},
      {"open_p50_us", BestQuartile(slices, &SliceStats::openP50, false), "us"},
      {"open_p90_us", BestQuartile(slices, &SliceStats::openP90, false), "us"},
      {"open_p99_us", BestQuartile(slices, &SliceStats::openP99, false), "us"},
      {"op_p50_us", BestQuartile(slices, &SliceStats::opP50, false), "us"},
      {"op_p90_us", BestQuartile(slices, &SliceStats::opP90, false), "us"},
      {"op_p99_us", BestQuartile(slices, &SliceStats::opP99, false), "us"},
      {"cpu_us_per_op", BestQuartile(slices, &SliceStats::cpuUsPerOp, false), "us"},
      {"rss_mib", r.window.rssMib, "MiB"},
  };
}

/// Medians over slices, for comparison with the gated best quartile.
std::vector<Metric> SliceMedians(const RunRecord& r) {
  const auto slices = Slices(r);
  return {
      {"ops_per_s", QuantileOver(slices, &SliceStats::opsPerS, 0.5), "ops/s"},
      {"open_p50_us", QuantileOver(slices, &SliceStats::openP50, 0.5), "us"},
      {"open_p99_us", QuantileOver(slices, &SliceStats::openP99, 0.5), "us"},
      {"op_p50_us", QuantileOver(slices, &SliceStats::opP50, 0.5), "us"},
      {"op_p99_us", QuantileOver(slices, &SliceStats::opP99, 0.5), "us"},
      {"cpu_us_per_op", QuantileOver(slices, &SliceStats::cpuUsPerOp, 0.5), "us"},
  };
}

/// The same quantities over the whole window, for comparison.
std::vector<Metric> WholeWindow(const RunRecord& r) {
  const double seconds = r.window.Seconds();
  return {
      {"ops_per_s", static_cast<double>(r.window.completed) / seconds, "ops/s"},
      {"open_p50_us", Percentile(Field(r, &OpSample::openNs, AnyOp), 0.50) * 1e-3, "us"},
      {"open_p99_us", Percentile(Field(r, &OpSample::openNs, AnyOp), 0.99) * 1e-3, "us"},
      {"op_p50_us", Percentile(Field(r, &OpSample::opNs, AnyOp), 0.50) * 1e-3, "us"},
      {"op_p99_us", Percentile(Field(r, &OpSample::opNs, AnyOp), 0.99) * 1e-3, "us"},
      {"cpu_us_per_op", r.ProcessCpu() / r.Ops() * 1e6, "us"},
  };
}

// Reported by name but not gated: they exist on one workload only, or are
// zero by construction (error_rate), so they cannot carry a relative bound.
std::vector<Metric> EndToEndReportOnly(WorkloadKind kind, const RunRecord& r) {
  const double attempted = static_cast<double>(r.window.completed + r.window.failed);
  std::vector<Metric> m = {{"error_rate", Ratio(static_cast<double>(r.window.failed), attempted), "ratio"}};
  if (kind == WorkloadKind::kDataMix) {
    const auto reads = Field(r, &OpSample::opNs, ReadOp);
    const auto writes = Field(r, &OpSample::opNs, WriteOp);
    m.push_back({"read_p50_us", Percentile(reads, 0.50) * 1e-3, "us"});
    m.push_back({"read_p99_us", Percentile(reads, 0.99) * 1e-3, "us"});
    m.push_back({"write_p50_us", Percentile(writes, 0.50) * 1e-3, "us"});
    m.push_back({"write_p99_us", Percentile(writes, 0.99) * 1e-3, "us"});
    m.push_back({"mib_per_s",
                 static_cast<double>(r.window.payloadBytes) / (1024.0 * 1024.0) / r.window.Seconds(),
                 "MiB/s"});
  }
  return m;
}

struct CostRow {
  Layer layer;
  double usPerOp = 0;
  std::string detail;
};

struct CostTable {
  std::vector<CostRow> rows;
  double cpuUsPerOp = 0;
  double attributedUsPerOp = 0;
};

CostTable BuildCostTable(const RunRecord& tr, const TraceSummary& sum) {
  const ThreadClasses classes = Classify(tr);
  const double ops = tr.Ops();
  const auto cpu = tr.ThreadCpuDelta();
  auto topLevelSeconds = [&](int tid) {
    auto it = sum.topLevelNsByTid.find(tid);
    return it == sum.topLevelNsByTid.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
  };
  // Reactor-loop CPU outside any span (the sched.post spans there) is the
  // transport's own work: epoll, socket reads and writes, framing, decode.
  double loopOutside = 0;
  for (int tid : classes.loops) loopOutside += std::max(0.0, cpu.at(tid) - topLevelSeconds(tid));
  // Executor-thread CPU outside any task span is the dispatch loop itself:
  // waiting, waking, queue locking.
  double execOutside = 0;
  for (const auto& [tid, role] : classes.executorRole) {
    (void)role;
    if (auto it = cpu.find(tid); it != cpu.end()) {
      execOutside += std::max(0.0, it->second - topLevelSeconds(tid));
    }
  }
  CostTable t;
  t.cpuUsPerOp = tr.ProcessCpu() / ops * 1e6;
  for (int l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const double spanUs = static_cast<double>(sum.selfNsByLayer[static_cast<std::size_t>(l)]) * 1e-3 / ops;
    CostRow row{layer, spanUs, ""};
    if (layer == Layer::kNet) {
      const double loopUs = loopOutside / ops * 1e6;
      row.usPerOp += loopUs;
      row.detail = Fmt("send spans %.2f + reactor loops %.2f", spanUs, loopUs);
    } else if (layer == Layer::kSched) {
      const double idleUs = execOutside / ops * 1e6;
      row.usPerOp += idleUs;
      row.detail = Fmt("post/task spans %.2f + dispatch loop %.2f", spanUs, idleUs);
    } else if (layer == Layer::kXrd) {
      row.detail = "ScallaNode handlers, cms included";
    } else if (layer == Layer::kPcache) {
      row.detail = "ProxyCacheNode handlers, tiers and origin client";
    } else if (layer == Layer::kLoadGen) {
      row.detail = "load generator: answer checks, content fill, bookkeeping";
    } else if (layer == Layer::kClient) {
      row.detail = "ScallaClient handlers and API calls";
    } else if (layer == Layer::kOss) {
      row.detail = "leaf MemOss and proxy disk tier";
    }
    t.attributedUsPerOp += row.usPerOp;
    t.rows.push_back(row);
  }
  return t;
}

double MeanSelfUs(const TraceSummary& sum, const std::string& name) {
  auto it = sum.byName.find(name);
  if (it == sum.byName.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.selfNs) * 1e-3 / static_cast<double>(it->second.count);
}

std::uint64_t CountOf(const TraceSummary& sum, const std::string& name) {
  auto it = sum.byName.find(name);
  return it == sum.byName.end() ? 0 : it->second.count;
}

std::vector<Metric> PerLayer(const RunRecord& tr, const RunRecord& un, const TraceSummary& sum,
                             const CostTable& cost, const std::vector<Metric>& micro) {
  const ThreadClasses classes = Classify(tr);
  const double ops = tr.Ops();
  const double win = tr.window.Seconds();
  const auto cpu = tr.ThreadCpuDelta();
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto fromMicro = [&](const std::string& prefix) {
    for (const auto& x : micro) {
      if (x.name.rfind(prefix, 0) == 0) m.push_back(x);
    }
  };
  using C = scalla::net::Fabric::Counters;

  // net
  double loopCpu = 0;
  for (int tid : classes.loops) loopCpu += cpu.at(tid);
  const double frames = static_cast<double>(tr.FabricDelta(&C::framesSent));
  add("net.frames_per_op", frames / ops, "frames/op");
  add("net.bytes_per_op", static_cast<double>(tr.FabricDelta(&C::bytesSent)) / ops, "B/op");
  add("net.send_us_p50", Percentile(sum.sendNs, 0.50) * 1e-3, "us");
  add("net.transit_us_p50", Percentile(sum.transitNs, 0.50) * 1e-3, "us");
  add("net.transit_us_p99", Percentile(sum.transitNs, 0.99) * 1e-3, "us");
  add("net.loop_busy_pct",
      Ratio(loopCpu, win * static_cast<double>(std::max<std::size_t>(classes.loops.size(), 1))) * 100,
      "%");
  add("net.loop_cpu_us_per_frame", Ratio(loopCpu * 1e6, frames), "us/frame");
  add("net.failures",
      static_cast<double>(tr.FabricDelta(&C::messagesDropped) + tr.FabricDelta(&C::queueOverflows) +
                          tr.FabricDelta(&C::reconnects)),
      "count");
  fromMicro("net.");

  // sched
  add("sched.tasks_per_op", static_cast<double>(CountOf(sum, "sched.task")) / ops, "tasks/op");
  add("sched.wait_us_p50", Percentile(sum.waitNs, 0.50) * 1e-3, "us");
  add("sched.wait_us_p99", Percentile(sum.waitNs, 0.99) * 1e-3, "us");
  for (const auto& row : cost.rows) {
    if (row.layer == Layer::kSched) {
      add("sched.overhead_cpu_us_per_op",
          row.usPerOp - static_cast<double>(sum.selfNsByLayer[static_cast<int>(Layer::kSched)]) * 1e-3 / ops,
          "us/op");
    }
  }
  fromMicro("sched.");

  // proto
  fromMicro("proto.");

  // xrd
  int n = 0;
  add("xrd.head_open_us", MeanSelfUs(sum, "head.XrdOpen"), "us/call");
  add("xrd.head_have_us", MeanSelfUs(sum, "head.CmsHave"), "us/call");
  add("xrd.leaf_open_us", MeanSelfUs(sum, "leaf.XrdOpen"), "us/call");
  add("xrd.leaf_close_us", MeanSelfUs(sum, "leaf.XrdClose"), "us/call");
  add("xrd.leaf_query_us", MeanSelfUs(sum, "leaf.CmsQuery"), "us/call");
  add("xrd.leaf_read_us", MeanSelfUs(sum, "leaf.XrdRead"), "us/call");
  add("xrd.leaf_write_us", MeanSelfUs(sum, "leaf.XrdWrite"), "us/call");
  add("xrd.head_busy_pct", RoleCpu(tr, classes, "mgr", &n) / win * 100, "%");
  const double leafCpu = RoleCpu(tr, classes, "leaf", &n);
  add("xrd.leaf_busy_pct", Ratio(leafCpu, win * n) * 100, "%");

  // cms
  const double locates = static_cast<double>(tr.Manager("resolver.locates"));
  add("cms.cache_hit_ratio",
      Ratio(static_cast<double>(tr.Manager("cache.hits")), static_cast<double>(tr.Manager("cache.lookups"))),
      "ratio");
  add("cms.queries_per_open", Ratio(static_cast<double>(tr.Manager("resolver.queries_sent")), locates),
      "ratio");
  add("cms.fast_redirect_ratio",
      Ratio(static_cast<double>(tr.Manager("resolver.fast_redirects")), locates), "ratio");
  add("cms.full_delays", static_cast<double>(tr.Manager("resolver.full_delays")), "count");
  add("cms.rehashes", static_cast<double>(tr.Manager("cache.rehashes")), "count");
  add("cms.bytes_per_entry",
      Ratio(static_cast<double>(tr.after.manager.Gauge("cache.approx_bytes")),
            static_cast<double>(tr.after.manager.Gauge("cache.live_objects"))),
      "B");
  fromMicro("cms.");
  fromMicro("util.");

  // oss
  add("oss.state_of_us", MeanSelfUs(sum, "oss.state_of"), "us/call");
  add("oss.read_us", MeanSelfUs(sum, "oss.read"), "us/call");
  add("oss.write_us", MeanSelfUs(sum, "oss.write"), "us/call");
  std::uint64_t ossCalls = 0;
  for (const auto& [name, st] : sum.byName) {
    if (st.layer == Layer::kOss) ossCalls += st.count;
  }
  add("oss.calls_per_op", static_cast<double>(ossCalls) / ops, "calls/op");
  add("oss.disk_read_us", MeanSelfUs(sum, "oss.disk_read"), "us/call");
  add("oss.disk_write_us", MeanSelfUs(sum, "oss.disk_write"), "us/call");

  // pcache
  const double lookups =
      static_cast<double>(tr.Proxy("pcache.hits") + tr.Proxy("pcache.misses"));
  const double reads = static_cast<double>(tr.window.reads);
  add("pcache.hit_ratio", Ratio(static_cast<double>(tr.Proxy("pcache.hits")), lookups), "ratio");
  add("pcache.dram_hit_ratio", Ratio(static_cast<double>(tr.Proxy("pcache.dram.hits")), lookups), "ratio");
  add("pcache.disk_hit_ratio", Ratio(static_cast<double>(tr.Proxy("pcache.disk.hits")), lookups), "ratio");
  add("pcache.origin_fetches_per_read", Ratio(static_cast<double>(tr.Proxy("pcache.origin_fetches")), reads),
      "ratio");
  add("pcache.spills_per_read", Ratio(static_cast<double>(tr.Proxy("pcache.spills")), reads), "ratio");
  add("pcache.promotions_per_read", Ratio(static_cast<double>(tr.Proxy("pcache.promotions")), reads),
      "ratio");
  add("pcache.read_handler_us", MeanSelfUs(sum, "proxy.XrdRead"), "us/call");
  add("pcache.busy_pct", RoleCpu(tr, classes, "proxy", &n) / win * 100, "%");
  fromMicro("pcache.");

  // client
  std::uint64_t handled = 0;
  std::int64_t handlerNs = 0;
  for (const auto& [name, st] : sum.byName) {
    if (st.layer == Layer::kClient && name != "client.api") {
      handled += st.count;
      handlerNs += st.selfNs;
    }
  }
  add("client.handler_us", Ratio(static_cast<double>(handlerNs) * 1e-3, static_cast<double>(handled)),
      "us/call");
  add("client.redirects_per_open", static_cast<double>(tr.Clients("client.redirects_followed")) / ops,
      "ratio");
  add("client.retries", static_cast<double>(tr.Clients("client.retries")), "count");
  add("client.recoveries", static_cast<double>(tr.Clients("client.recoveries")), "count");
  const double clientCpu = RoleCpu(tr, classes, "cli", &n);
  add("client.busy_pct", Ratio(clientCpu, win * n) * 100, "%");

  // obs
  fromMicro("obs.");

  // whole: the cost table and what tracing itself costs
  for (const auto& row : cost.rows) {
    add(std::string("cost.") + LayerName(row.layer) + "_us_per_op", row.usPerOp, "us/op");
  }
  add("cost.cpu_us_per_op", cost.cpuUsPerOp, "us/op");
  add("cost.remainder_us_per_op", cost.cpuUsPerOp - cost.attributedUsPerOp, "us/op");
  add("cost.attributed_pct", Ratio(cost.attributedUsPerOp, cost.cpuUsPerOp) * 100, "%");
  const double untracedCpu = un.ProcessCpu() / un.Ops() * 1e6;
  add("trace.overhead_pct", (Ratio(cost.cpuUsPerOp, untracedCpu) - 1) * 100, "%");
  return m;
}

// ------------------------------------------------------------ output

void PrintHostNoise(double calibration, const RunRecord& r) {
  const double total = static_cast<double>(r.after.stat.total - r.before.stat.total);
  std::printf("host: calibration_loop_s=%.4f steal_pct=%.2f iowait_pct=%.2f (window, all CPUs)\n",
              calibration, Ratio(static_cast<double>(r.after.stat.steal - r.before.stat.steal), total) * 100,
              Ratio(static_cast<double>(r.after.stat.iowait - r.before.stat.iowait), total) * 100);
  const ThreadClasses classes = Classify(r);
  std::printf("thread cpu in window (s, %% of one CPU):\n");
  for (const auto& [tid, cpu] : r.ThreadCpuDelta()) {
    std::string role = "main";
    if (auto it = classes.executorRole.find(tid); it != classes.executorRole.end()) {
      role = it->second;
    } else if (classes.loops.count(tid) != 0) {
      role = "reactor-loop";
    }
    std::printf("  %-14s tid %-7d %8.3f  %5.1f%%\n", role.c_str(), tid, cpu,
                cpu / r.window.Seconds() * 100);
  }
}

void PrintChecks(const RunRecord& r) {
  std::printf("checks: failed=%llu wrong_node=%llu wrong_bytes=%llu unexpected_redirects=%llu "
              "waits=%llu read_back=%llu/%llu mismatches\n",
              static_cast<unsigned long long>(r.checks.failed),
              static_cast<unsigned long long>(r.checks.wrongNode),
              static_cast<unsigned long long>(r.checks.wrongBytes),
              static_cast<unsigned long long>(r.checks.unexpectedRedirects),
              static_cast<unsigned long long>(r.checks.waits),
              static_cast<unsigned long long>(r.checks.readBackMismatches),
              static_cast<unsigned long long>(r.checks.readBackBlocks));
  if (!r.checks.firstError.empty()) std::printf("  first error: %s\n", r.checks.firstError.c_str());
  for (const auto& c : r.validation) {
    std::printf("validation: %-50s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED", c.detail.c_str());
  }
}

bool Valid(const RunRecord& r) {
  for (const auto& c : r.validation) {
    if (!c.ok) return false;
  }
  return true;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void PrintCostTable(const CostTable& t, const TraceSummary& sum, double overheadPct) {
  std::printf("cost table (traced run; self time per operation; cpu_us_per_op = %.2f us):\n",
              t.cpuUsPerOp);
  std::printf("  %-8s %10s %7s  %s\n", "layer", "us/op", "share", "what");
  for (const auto& row : t.rows) {
    std::printf("  %-8s %10.2f %6.1f%%  %s\n", LayerName(row.layer), row.usPerOp,
                Ratio(row.usPerOp, t.cpuUsPerOp) * 100, row.detail.c_str());
  }
  std::printf("  %-8s %10.2f %6.1f%%\n", "total", t.attributedUsPerOp,
              Ratio(t.attributedUsPerOp, t.cpuUsPerOp) * 100);
  std::printf("  %-8s %10.2f %6.1f%%  cpu_us_per_op minus the layers\n", "rest",
              t.cpuUsPerOp - t.attributedUsPerOp,
              Ratio(t.cpuUsPerOp - t.attributedUsPerOp, t.cpuUsPerOp) * 100);
  std::printf("  trace.overhead_pct %.1f (traced cpu_us_per_op over untraced)\n", overheadPct);
  std::printf("top span names by self time (us per operation):\n");
  std::vector<std::pair<double, std::string>> top;
  for (const auto& [name, st] : sum.byName) top.push_back({static_cast<double>(st.selfNs), name});
  std::sort(top.rbegin(), top.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(top.size(), 14); ++i) {
    const auto& st = sum.byName.at(top[i].second);
    std::printf("  %-24s calls %9llu  self %8.2f us/call\n", top[i].second.c_str(),
                static_cast<unsigned long long>(st.count),
                static_cast<double>(st.selfNs) * 1e-3 / static_cast<double>(st.count));
  }
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  NameThisThread("pb-main");
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n", WorkloadName(args.kind),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  const double calibration = CalibrationSeconds();

  if (!args.trace) {
    const RunRecord run = RunWorkload(args, 0, nullptr);
    std::vector<double> setups = {run.setupSeconds};
    for (int i = 1; i < kSetupRepeats; ++i) setups.push_back(SetupOnly(args, i));
    PrintHostNoise(calibration, run);
    PrintChecks(run);
    std::printf("setup_s runs:");
    for (double s : setups) std::printf(" %.4f", s);
    std::printf("\n");
    std::vector<Metric> metrics;
    std::vector<Metric> tails;
    for (const auto& m : EndToEnd(run, setups)) (Gated(m.name) ? metrics : tails).push_back(m);
    PrintMetrics("end-to-end (timings: best quartile of the window's 0.5 s slices):", metrics);
    PrintMetrics("throughput and tail latency (same estimator; printed, not gated):", tails);
    PrintMetrics("median over slices:", SliceMedians(run));
    PrintMetrics("whole window:", WholeWindow(run));
    PrintMetrics("reported only:", EndToEndReportOnly(args.kind, run));
    std::printf("samples: %zu operations in a %.2f s window; rss sampled %s\nslice ops/s:",
                run.window.samples.size(), run.window.Seconds(),
                run.window.rssAtMark
                    ? ("at " + std::to_string(LoadGen::kRssMarkOps) + " operations").c_str()
                    : "at the window's end");
    for (const auto& slice : Slices(run)) std::printf(" %.0f", slice.opsPerS);
    std::printf("\nslice steal %%:");
    for (std::size_t i = 0; i + 1 < run.marks.size(); ++i) {
      const ProcStat& a = run.marks[i].host;
      const ProcStat& b = run.marks[i + 1].host;
      std::printf(" %.1f", Ratio(static_cast<double>(b.steal - a.steal),
                                 static_cast<double>(b.total - a.total)) * 100);
    }
    std::printf("\n");
    const bool correct = run.checks.failed == 0 && Valid(run);
    PrintJson(correct, run.window.completed + run.window.failed, run.window.failed, metrics);
    return 0;
  }

  const RunRecord untraced = RunWorkload(args, 0, nullptr);
  Tracer tracer(kSpanLogPerThread);
  const RunRecord traced = RunWorkload(args, 1, &tracer);
  const TraceSummary summary = tracer.Summarize();
  const std::string spansPath = args.outDir + "/spans-" + WorkloadName(args.kind) + "-seed" +
                                std::to_string(args.seed) + ".jsonl";
  const bool wrote = tracer.WriteSpans(spansPath);
  const Namespace ns(args.seed);
  const std::vector<Metric> micro = RunMicrobenchmarks(args.kind, ns, kMicroPortBase);

  PrintHostNoise(calibration, traced);
  std::printf("untraced run:\n");
  PrintChecks(untraced);
  std::printf("traced run:\n");
  PrintChecks(traced);
  const CostTable cost = BuildCostTable(traced, summary);
  const std::vector<Metric> layers = PerLayer(traced, untraced, summary, cost, micro);
  PrintMetrics("end-to-end of the untraced run:", EndToEnd(untraced, {untraced.setupSeconds}));
  PrintMetrics("end-to-end of the traced run:", EndToEnd(traced, {traced.setupSeconds}));
  double overhead = 0;
  for (const auto& m : layers) {
    if (m.name == "trace.overhead_pct") overhead = m.value;
  }
  PrintCostTable(cost, summary, overhead);
  std::printf("spans: %llu written to %s%s (%llu more not kept: %zu per thread)\n",
              static_cast<unsigned long long>(summary.spansLogged), spansPath.c_str(),
              wrote ? "" : " FAILED", static_cast<unsigned long long>(summary.spansNotLogged),
              kSpanLogPerThread);
  PrintMetrics("per-layer:", layers);
  const bool correct = untraced.checks.failed == 0 && traced.checks.failed == 0 &&
                       Valid(untraced) && Valid(traced) && wrote;
  PrintJson(correct,
            untraced.window.completed + untraced.window.failed + traced.window.completed +
                traced.window.failed,
            untraced.window.failed + traced.window.failed, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
