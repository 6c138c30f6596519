// E-PCACHE — proxy cache tier: cold-miss vs warm-hit vs direct-to-cluster
// access latency, and the hit rate a Zipf workload reaches against a cache
// smaller than the working set.
//
// An XCache-style proxy absorbs the cluster's redirection cost: a warm hit
// is one client<->proxy round trip, while a cold miss pays that round trip
// plus the origin open/read (resolver, redirects, leaf I/O) behind it, and
// a direct access pays the cluster path on every request. All three are
// measured in the same discrete-event simulation, so the numbers are the
// protocol's, not the host machine's.
//
// Output: a human table plus one JSON line (machine-scrapable) with the
// per-class latency stats and the measured hit rate.
#include <cinttypes>
#include <vector>

#include "bench/bench_common.h"
#include "sim/cluster.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/stats.h"

namespace scalla {
namespace {

constexpr std::size_t kFiles = 200;
constexpr std::uint32_t kBlockSize = 4096;
constexpr std::uint32_t kBlocksPerFile = 4;       // 16 KiB files
constexpr std::size_t kProxyRequests = 4000;
constexpr std::size_t kDirectRequests = 800;
constexpr double kZipfExponent = 1.1;

std::string FilePath(std::size_t i) { return "/store/f" + std::to_string(i); }

struct Access {
  proto::XrdErr err = proto::XrdErr::kNone;
  Duration elapsed{};
};

// One full client access — open, read `length` at `offset`, close — timed
// in virtual time.
Access TimedAccess(sim::SimCluster& cluster, client::ScallaClient& c,
                   const std::string& path, std::uint64_t offset,
                   std::uint32_t length) {
  Access out;
  const TimePoint start = cluster.engine().Now();
  const auto open = cluster.OpenAndWait(c, path, cms::AccessMode::kRead, false);
  if (open.err != proto::XrdErr::kNone) {
    out.err = open.err;
    return out;
  }
  auto readErr = std::make_shared<std::optional<proto::XrdErr>>();
  c.Read(open.file, offset, length,
         [readErr](proto::XrdErr err, std::string) { *readErr = err; });
  cluster.engine().RunUntilPredicate([readErr] { return readErr->has_value(); },
                                     cluster.engine().Now() + std::chrono::seconds(30));
  auto closed = std::make_shared<std::optional<proto::XrdErr>>();
  c.Close(open.file, [closed](proto::XrdErr err) { *closed = err; });
  cluster.engine().RunUntilPredicate([closed] { return closed->has_value(); },
                                     cluster.engine().Now() + std::chrono::seconds(30));
  out.err = readErr->value_or(proto::XrdErr::kIo);
  out.elapsed = cluster.engine().Now() - start;
  return out;
}

std::string StatsJson(const obs::HistogramStat& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"n\":%llu,\"mean_us\":%.2f,\"p50_us\":%.2f,\"p99_us\":%.2f}",
                static_cast<unsigned long long>(h.count), h.MeanNanos() / 1e3,
                static_cast<double>(h.Percentile(0.5)) / 1e3,
                static_cast<double>(h.Percentile(0.99)) / 1e3);
  return buf;
}

// ------------------------------------------------- two-tier (DRAM + disk)

constexpr std::uint64_t kWorkingSetBytes =
    static_cast<std::uint64_t>(kFiles) * kBlocksPerFile * kBlockSize;

sim::ClusterSpec TieredSpec(double dramFraction) {
  sim::ClusterSpec spec;
  spec.servers = 8;
  spec.withProxy = true;
  spec.proxyCache.blockSize = kBlockSize;
  spec.proxyCache.capacityBytes = static_cast<std::uint64_t>(
      dramFraction * static_cast<double>(kWorkingSetBytes));
  // Disk holds the full working set: with ghost admission the question the
  // sweep answers is how much DRAM the hot head needs, not whether bytes
  // survive at all.
  spec.proxyDiskCapacity = kWorkingSetBytes;
  return spec;
}

void PlaceWorkingSet(sim::SimCluster& cluster) {
  for (std::size_t i = 0; i < kFiles; ++i) {
    cluster.PlaceFile(i % cluster.ServerCount(), FilePath(i),
                      std::string(kBlocksPerFile * kBlockSize, 'd'));
  }
}

// Hit rate across a window bounded by two stats snapshots.
double WindowHitRate(const pcache::TieredCacheStats& before,
                     const pcache::TieredCacheStats& after) {
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t total = hits + (after.misses - before.misses);
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

struct TierSweepPoint {
  double dramPct = 0;
  double hitRate = 0;      // either tier answered
  double dramHitRate = 0;  // fraction of lookups answered by DRAM
  double diskHitRate = 0;  // fraction answered by the disk tier
  double warmP99Us = 0;    // p99 of accesses that dodged origin entirely
  std::uint64_t spills = 0;
  std::uint64_t promotions = 0;
};

// One Zipf run against a two-tier proxy with `dramFraction` of the working
// set in DRAM. Same access law as the legacy phase, fresh cluster.
TierSweepPoint RunTierPoint(double dramFraction) {
  sim::SimCluster cluster(TieredSpec(dramFraction));
  cluster.Start();
  PlaceWorkingSet(cluster);

  util::Rng rng(0xca11e);
  util::ZipfSampler zipf(kFiles, kZipfExponent);
  auto& c = cluster.NewProxyClient();
  obs::Counter& fetches =
      cluster.proxy()->metrics().GetCounter("pcache.origin_fetches");
  obs::Counter& originOpens =
      cluster.proxy()->metrics().GetCounter("pcache.origin_opens");

  obs::Histogram warmLat;
  for (std::size_t i = 0; i < kProxyRequests; ++i) {
    const std::size_t f = zipf.Sample(rng);
    const std::uint64_t offset = rng.NextBelow(kBlocksPerFile) * kBlockSize;
    const std::uint64_t before = fetches.Value() + originOpens.Value();
    const Access a = TimedAccess(cluster, c, FilePath(f), offset, kBlockSize);
    if (a.err != proto::XrdErr::kNone) continue;
    if (fetches.Value() + originOpens.Value() == before) warmLat.Record(a.elapsed);
  }

  const auto stats = cluster.proxy()->cache().GetTieredStats();
  const std::uint64_t lookups = stats.hits + stats.misses;
  TierSweepPoint point;
  point.dramPct = dramFraction * 100.0;
  point.hitRate = lookups == 0 ? 0.0
                               : static_cast<double>(stats.hits) /
                                     static_cast<double>(lookups);
  point.dramHitRate = lookups == 0 ? 0.0
                                   : static_cast<double>(stats.dramHits) /
                                         static_cast<double>(lookups);
  point.diskHitRate = lookups == 0 ? 0.0
                                   : static_cast<double>(stats.diskHits) /
                                         static_cast<double>(lookups);
  point.warmP99Us = static_cast<double>(warmLat.Digest().Percentile(0.99)) / 1e3;
  point.spills = stats.spills;
  point.promotions = stats.promotions;
  return point;
}

struct ShiftResult {
  double preHitRate = 0;   // steady state before the popularity shift
  double postHitRate = 0;  // steady state after re-adapting
};

// Mid-run Zipf shift: after 2000 requests the popularity ranking rotates
// by half the catalogue — yesterday's cold tail is today's hot head. The
// two windows measure steady-state before and re-adapted after.
ShiftResult RunZipfShift() {
  sim::SimCluster cluster(TieredSpec(0.25));
  cluster.Start();
  PlaceWorkingSet(cluster);

  util::Rng rng(0x51f7);
  util::ZipfSampler zipf(kFiles, kZipfExponent);
  auto& c = cluster.NewProxyClient();
  auto& cache = cluster.proxy()->cache();

  ShiftResult out;
  pcache::TieredCacheStats mark;
  for (std::size_t i = 0; i < 4000; ++i) {
    std::size_t f = zipf.Sample(rng);
    if (i >= 2000) f = (f + kFiles / 2) % kFiles;  // the shift
    if (i == 1000 || i == 3000) mark = cache.GetTieredStats();
    const std::uint64_t offset = rng.NextBelow(kBlocksPerFile) * kBlockSize;
    (void)TimedAccess(cluster, c, FilePath(f), offset, kBlockSize);
    if (i == 1999) out.preHitRate = WindowHitRate(mark, cache.GetTieredStats());
    if (i == 3999) out.postHitRate = WindowHitRate(mark, cache.GetTieredStats());
  }
  return out;
}

struct ScanResult {
  double hotBefore = 0;  // hot-set hit rate before the scan
  double hotAfter = 0;   // ... and after a scan of 2x the DRAM tier
};

// The scan-resistance case the acceptance gate pins: warm a Zipf hot set
// into DRAM, sweep a sequential scan of twice the DRAM tier through the
// proxy, and measure how far the hot set's hit rate fell.
ScanResult RunScanCase() {
  sim::SimCluster cluster(TieredSpec(0.25));  // DRAM = 200 blocks
  cluster.Start();
  PlaceWorkingSet(cluster);

  constexpr std::size_t kHotFiles = 40;  // 160 blocks: fits in DRAM
  auto& c = cluster.NewProxyClient();
  auto& cache = cluster.proxy()->cache();

  // Warm: two passes so every hot block proves reuse and earns DRAM.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t f = 0; f < kHotFiles; ++f) {
      (void)cluster.ReadAll(c, FilePath(f));
    }
  }

  const auto measure = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    util::ZipfSampler zipf(kHotFiles, kZipfExponent);
    const auto before = cache.GetTieredStats();
    for (std::size_t i = 0; i < 500; ++i) {
      const std::size_t f = zipf.Sample(rng);
      const std::uint64_t offset = rng.NextBelow(kBlocksPerFile) * kBlockSize;
      (void)TimedAccess(cluster, c, FilePath(f), offset, kBlockSize);
    }
    return WindowHitRate(before, cache.GetTieredStats());
  };

  ScanResult out;
  out.hotBefore = measure(0x5ca9);
  // The scan: every file once, sequentially — 800 blocks against a
  // 200-block DRAM tier.
  for (std::size_t f = 0; f < kFiles; ++f) (void)cluster.ReadAll(c, FilePath(f));
  out.hotAfter = measure(0x5ca9);
  return out;
}

}  // namespace
}  // namespace scalla

int main() {
  using namespace scalla;

  sim::ClusterSpec spec;
  spec.servers = 8;
  spec.withProxy = true;
  spec.proxyCache.blockSize = kBlockSize;
  // Half the working set fits: the Zipf head lives in cache, the tail
  // keeps the eviction sweep honest.
  spec.proxyCache.capacityBytes =
      static_cast<std::uint64_t>(kFiles) * kBlocksPerFile * kBlockSize / 2;
  sim::SimCluster cluster(spec);
  cluster.Start();

  for (std::size_t i = 0; i < kFiles; ++i) {
    cluster.PlaceFile(i % cluster.ServerCount(), FilePath(i),
                      std::string(kBlocksPerFile * kBlockSize, 'd'));
  }

  util::Rng rng(0xca11e);
  util::ZipfSampler zipf(kFiles, kZipfExponent);

  // Baseline: the same workload straight at the cluster head.
  auto& direct = cluster.NewClient();
  obs::Histogram directLat;
  for (std::size_t i = 0; i < kDirectRequests; ++i) {
    const std::size_t f = zipf.Sample(rng);
    const std::uint64_t offset = rng.NextBelow(kBlocksPerFile) * kBlockSize;
    const Access a = TimedAccess(cluster, direct, FilePath(f), offset, kBlockSize);
    if (a.err == proto::XrdErr::kNone) directLat.Record(a.elapsed);
  }

  // Through the proxy: classify each access by whether it touched origin.
  auto& proxied = cluster.NewProxyClient();
  obs::Histogram coldLat, warmLat;
  obs::Counter& fetches =
      cluster.proxy()->metrics().GetCounter("pcache.origin_fetches");
  obs::Counter& originOpens =
      cluster.proxy()->metrics().GetCounter("pcache.origin_opens");
  for (std::size_t i = 0; i < kProxyRequests; ++i) {
    const std::size_t f = zipf.Sample(rng);
    const std::uint64_t offset = rng.NextBelow(kBlocksPerFile) * kBlockSize;
    const std::uint64_t before = fetches.Value() + originOpens.Value();
    const Access a = TimedAccess(cluster, proxied, FilePath(f), offset, kBlockSize);
    if (a.err != proto::XrdErr::kNone) continue;
    const bool touchedOrigin = fetches.Value() + originOpens.Value() > before;
    (touchedOrigin ? coldLat : warmLat).Record(a.elapsed);
  }

  // This cache has no disk tier, so a DRAM eviction is lost data.
  const auto cacheStats = cluster.proxy()->cache().GetTieredStats();
  const double hitRate =
      cacheStats.hits + cacheStats.misses == 0
          ? 0.0
          : static_cast<double>(cacheStats.hits) /
                static_cast<double>(cacheStats.hits + cacheStats.misses);

  bench::PrintHeader(
      "E-PCACHE", "proxy cache tier: warm hits dodge the cluster path",
      "a cached access costs one proxy round trip; the cluster's redirect "
      "latency is paid only on misses");
  bench::Table table({"access class", "n", "mean", "p50", "p99"});
  const auto addRow = [&table](const std::string& name,
                               const obs::HistogramStat& h) {
    table.AddRow({name, std::to_string(h.count), util::FormatNanos(h.MeanNanos()),
                  util::FormatNanos(static_cast<double>(h.Percentile(0.5))),
                  util::FormatNanos(static_cast<double>(h.Percentile(0.99)))});
  };
  const obs::HistogramStat directAll = directLat.Digest();
  const obs::HistogramStat coldMiss = coldLat.Digest();
  const obs::HistogramStat warmHit = warmLat.Digest();
  addRow("direct to cluster", directAll);
  addRow("proxy cold miss", coldMiss);
  addRow("proxy warm hit", warmHit);
  table.Print();
  std::printf("zipf(s=%.1f) over %zu files, %" PRIu64 "-byte blocks, cache %.0f%% "
              "of working set: hit rate %.1f%%, %" PRIu64 " evictions\n",
              kZipfExponent, kFiles, static_cast<std::uint64_t>(kBlockSize), 50.0,
              hitRate * 100.0, cacheStats.dram.evictions);

  // Two-tier phases: DRAM-size sweep, mid-run popularity shift, and the
  // sequential-scan case ghost admission exists for.
  const double kSweep[] = {0.125, 0.25, 0.5};
  std::vector<TierSweepPoint> sweep;
  for (const double fraction : kSweep) sweep.push_back(RunTierPoint(fraction));
  const ShiftResult shift = RunZipfShift();
  const ScanResult scan = RunScanCase();

  std::printf("\ntwo-tier sweep (disk = full working set):\n");
  bench::Table tierTable(
      {"dram %", "hit rate", "dram hits", "disk hits", "warm p99", "spills"});
  for (const auto& p : sweep) {
    char hr[32], dr[32], kr[32];
    std::snprintf(hr, sizeof(hr), "%.1f%%", p.hitRate * 100.0);
    std::snprintf(dr, sizeof(dr), "%.1f%%", p.dramHitRate * 100.0);
    std::snprintf(kr, sizeof(kr), "%.1f%%", p.diskHitRate * 100.0);
    tierTable.AddRow({std::to_string(static_cast<int>(p.dramPct * 10) / 10), hr, dr,
                      kr, util::FormatNanos(p.warmP99Us * 1e3),
                      std::to_string(p.spills)});
  }
  tierTable.Print();
  std::printf("zipf shift at request 2000: hit rate %.1f%% -> %.1f%% (re-adapted)\n",
              shift.preHitRate * 100.0, shift.postHitRate * 100.0);
  std::printf("scan of 2x DRAM: hot-set hit rate %.1f%% -> %.1f%% (dent %.1f pts)\n",
              scan.hotBefore * 100.0, scan.hotAfter * 100.0,
              (scan.hotBefore - scan.hotAfter) * 100.0);

  std::string sweepJson = "[";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& p = sweep[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"dram_pct\":%.1f,\"hit_rate\":%f,\"dram_hit_rate\":%f,"
                  "\"disk_hit_rate\":%f,\"warm_p99_us\":%.2f,\"spills\":%llu,"
                  "\"promotions\":%llu}",
                  i == 0 ? "" : ",", p.dramPct, p.hitRate, p.dramHitRate,
                  p.diskHitRate, p.warmP99Us,
                  static_cast<unsigned long long>(p.spills),
                  static_cast<unsigned long long>(p.promotions));
    sweepJson += buf;
  }
  sweepJson += "]";
  char extraJson[512];
  std::snprintf(extraJson, sizeof(extraJson),
                ",\"tiered\":{\"hit_rate\":%f,\"dram_hit_rate\":%f,"
                "\"disk_hit_rate\":%f,\"warm_p99_us\":%.2f},"
                "\"shift\":{\"pre_hit_rate\":%f,\"post_hit_rate\":%f},"
                "\"scan\":{\"hot_before\":%f,\"hot_after\":%f,\"dent\":%f}",
                sweep[1].hitRate, sweep[1].dramHitRate, sweep[1].diskHitRate,
                sweep[1].warmP99Us, shift.preHitRate, shift.postHitRate,
                scan.hotBefore, scan.hotAfter, scan.hotBefore - scan.hotAfter);

  std::printf("\nJSON %s\n",
              ("{\"bench\":\"proxy_cache\",\"files\":" + std::to_string(kFiles) +
               ",\"block_size\":" + std::to_string(kBlockSize) +
               ",\"hit_rate\":" + std::to_string(hitRate) +
               ",\"evictions\":" + std::to_string(cacheStats.dram.evictions) +
               ",\"direct\":" + StatsJson(directAll) +
               ",\"cold_miss\":" + StatsJson(coldMiss) +
               ",\"warm_hit\":" + StatsJson(warmHit) +
               ",\"sweep\":" + sweepJson + extraJson + "}")
                  .c_str());

  const bool warmFaster = warmHit.count > 0 && coldMiss.count > 0 &&
                          warmHit.MeanNanos() < coldMiss.MeanNanos();
  const bool scanResistant = scan.hotBefore - scan.hotAfter < 0.05;
  std::printf("warm hit faster than cold miss: %s\n", warmFaster ? "yes" : "NO");
  std::printf("scan dents hot set by < 5 points: %s\n", scanResistant ? "yes" : "NO");
  return warmFaster && scanResistant ? 0 : 1;
}
