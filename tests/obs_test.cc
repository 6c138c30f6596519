// Observability subsystem: metrics registry semantics, the bucket
// histogram (exact merges, bounded size, lock-free recording beside
// snapshots), snapshot determinism and merging, the wire round-trip of
// stats messages and the rejection of hostile histograms, end-to-end tree
// aggregation over a simulated cluster (including a crashed leaf being
// excluded from the fold), and component-metric name parity between a
// cluster head and the meta-manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "proto/wire.h"
#include "sim/cluster.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
#include "util/rng.h"
#include "xrd/scalla_node.h"

namespace scalla {
namespace {

using cms::AccessMode;

// ------------------------------------------------------------ registry

TEST(ObsTest, CounterAndGaugeBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.GetCounter("test.counter");
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.Value(), 5u);

  obs::Gauge& g = reg.GetGauge("test.gauge");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
}

TEST(ObsTest, GetReturnsSameInstrumentForSameName) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.GetCounter("dup");
  obs::Counter& b = reg.GetCounter("dup");
  EXPECT_EQ(&a, &b);
  a.Inc();
  EXPECT_EQ(b.Value(), 1u);
  // Distinct kinds live in distinct namespaces even under one name.
  obs::Gauge& g = reg.GetGauge("dup");
  g.Set(42);
  EXPECT_EQ(reg.GetCounter("dup").Value(), 1u);
}

TEST(ObsTest, InstrumentAddressesSurviveFurtherRegistration) {
  obs::MetricsRegistry reg;
  obs::Counter& first = reg.GetCounter("stable");
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("other" + std::to_string(i));
  }
  first.Inc();
  EXPECT_EQ(reg.GetCounter("stable").Value(), 1u);
}

TEST(ObsTest, CountersAreThreadSafe) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.GetCounter("mt");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), 40000u);
}

// ----------------------------------------------------------- histogram

TEST(ObsTest, EmptyHistogramDigestIsAllZero) {
  obs::MetricsRegistry reg;
  const obs::HistogramStat d = reg.GetHistogram("empty").Digest();
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.sumNanos, 0);
  EXPECT_EQ(d.minNanos, 0);
  EXPECT_EQ(d.maxNanos, 0);
  EXPECT_TRUE(d.buckets.empty());
  EXPECT_EQ(d.MeanNanos(), 0.0);
  EXPECT_EQ(d.Percentile(0.5), 0);
  EXPECT_EQ(d.Percentile(0.99), 0);
}

TEST(ObsTest, HistogramDigestTracksRecordings) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.GetHistogram("lat");
  for (int i = 1; i <= 100; ++i) h.RecordNanos(i * 1000);
  const obs::HistogramStat d = h.Digest();
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.minNanos, 1000);
  EXPECT_EQ(d.maxNanos, 100000);
  EXPECT_NEAR(d.MeanNanos(), 50500.0, 1.0);
  EXPECT_GE(d.Percentile(0.99), d.Percentile(0.5));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.MeanNanos(), d.MeanNanos());
  EXPECT_TRUE(d.Valid());
}

// Nearest-rank over the sorted samples: the exact rule Percentile approximates.
std::int64_t ExactPercentile(std::vector<std::int64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  return sorted[static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5)];
}

TEST(ObsTest, HistogramBucketsBoundTheRelativeError) {
  // Below 64 ns every value is exact; above, each bucket spans at most
  // 1/64 of its values, and the reported middle is within 1/128.
  for (std::int64_t v = 0; v < 64; ++v) {
    obs::Histogram h;
    h.RecordNanos(v);
    h.RecordNanos(v + 1000);  // keeps v off the max clamp
    EXPECT_EQ(h.Digest().Percentile(0), v);
  }
  util::Rng rng(0xB0C7);
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<std::int64_t>(64 + rng.NextBelow(std::uint64_t{1} << 36));
    obs::Histogram h;
    h.RecordNanos(0);
    h.RecordNanos(v);
    h.RecordNanos(std::int64_t{1} << 40);
    const auto got = static_cast<double>(h.Digest().Percentile(0.5));
    EXPECT_LE(std::abs(got - static_cast<double>(v)), static_cast<double>(v) / 128 + 1) << v;
  }
  // Indices are dense and monotone, and the top bucket absorbs the rest.
  EXPECT_EQ(obs::HistogramStat::BucketOf(-5), 0u);
  EXPECT_EQ(obs::HistogramStat::BucketOf(64), 64u);
  EXPECT_EQ(obs::HistogramStat::BucketOf(128), 128u);
  EXPECT_LT(obs::HistogramStat::BucketOf(60'000'000'000), obs::HistogramStat::kBuckets - 1);
  EXPECT_EQ(obs::HistogramStat::BucketOf((std::int64_t{1} << 37) - 1),
            obs::HistogramStat::kBuckets - 1);
  EXPECT_EQ(obs::HistogramStat::BucketOf(std::int64_t{1} << 37), obs::HistogramStat::kBuckets - 1);
  EXPECT_EQ(obs::HistogramStat::BucketOf(INT64_MAX), obs::HistogramStat::kBuckets - 1);
}

TEST(ObsTest, EqualSamplesReportTheirExactValue) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.RecordNanos(90'000);
  const obs::HistogramStat d = h.Digest();
  for (const double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(d.Percentile(q), 90'000);
  EXPECT_EQ(d.MeanNanos(), 90'000.0);
}

TEST(ObsTest, LaterSamplesPastFourMillionMoveTheP99) {
  // A recorder that kept only its first 4,194,304 samples would freeze
  // its percentiles there. The last 200k samples shift upward 100-fold,
  // 4.5% of all samples, so the p99 must land among them.
  obs::Histogram h;
  constexpr int kEarly = 4'194'304 + 100'000;
  for (int i = 0; i < kEarly; ++i) h.RecordNanos(1000 + (i & 255));
  EXPECT_LT(h.Digest().Percentile(0.99), 1300);
  for (int i = 0; i < 200'000; ++i) h.RecordNanos(100'000 + (i & 255));
  const obs::HistogramStat d = h.Digest();
  EXPECT_EQ(d.count, static_cast<std::uint64_t>(kEarly) + 200'000);
  EXPECT_GE(d.Percentile(0.99), 99'000);
  EXPECT_LE(d.Percentile(0.5), 1300);
}

TEST(ObsTest, MergedPercentilesEqualThePooledHistogram) {
  // Seeded samples split over 1-64 histograms: the merged histogram is the
  // pooled one bucket for bucket, so its percentiles match exactly, and
  // they lie within 2% of the exact percentile of the sorted samples.
  util::Rng rng(0x3E7CE);
  for (const std::size_t parts : {1, 2, 3, 7, 16, 64}) {
    std::vector<std::int64_t> samples;
    std::vector<std::unique_ptr<obs::Histogram>> shards;
    for (std::size_t p = 0; p < parts; ++p) shards.push_back(std::make_unique<obs::Histogram>());
    obs::Histogram pooled;
    for (int i = 0; i < 20'000; ++i) {
      // A lognormal-ish latency: ~50us body with a long tail.
      const double u = rng.NextDouble();
      const auto v = static_cast<std::int64_t>(
          20'000 + 30'000 * u + (rng.NextBool(0.05) ? 2'000'000 * rng.NextDouble() : 0));
      samples.push_back(v);
      shards[rng.NextBelow(parts)]->RecordNanos(v);
      pooled.RecordNanos(v);
    }
    obs::MetricsSnapshot merged;
    for (const auto& shard : shards) merged.MergeHistogram("lat", shard->Digest());
    const obs::HistogramStat* m = merged.Histogram("lat");
    ASSERT_NE(m, nullptr);
    const obs::HistogramStat whole = pooled.Digest();
    EXPECT_EQ(*m, whole) << parts << " parts";
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      SCOPED_TRACE(std::to_string(parts) + " parts, q=" + std::to_string(q));
      EXPECT_EQ(m->Percentile(q), whole.Percentile(q));
      const auto exact = static_cast<double>(ExactPercentile(samples, q));
      EXPECT_LE(std::abs(static_cast<double>(m->Percentile(q)) - exact), 0.02 * exact);
    }
  }
}

TEST(ObsTest, RecordBesideSnapshotKeepsExactCounts) {
  // Four recording threads beside a thread that snapshots the registry in
  // a loop: every snapshot is valid and its min/max cover every sample it
  // counts, and the final one holds every sample. TSan runs this
  // (scripts/verify.sh).
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.GetHistogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::atomic<bool> reading{false};
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const obs::MetricsSnapshot snap = reg.Snapshot();
      reading = true;
      const obs::HistogramStat* d = snap.Histogram("lat");
      ASSERT_NE(d, nullptr);
      ASSERT_TRUE(d->Valid());
      for (const auto& [index, n] : d->buckets) {
        ASSERT_GE(index, obs::HistogramStat::BucketOf(d->minNanos));
        ASSERT_LE(index, obs::HistogramStat::BucketOf(d->maxNanos));
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, &reading, t] {
      while (!reading.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) h.RecordNanos(100 * (t + 1) + (i % 1000));
    });
  }
  for (auto& w : writers) w.join();
  stop = true;
  reader.join();
  const obs::HistogramStat d = h.Digest();
  EXPECT_EQ(d.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(d.minNanos, 100);
  EXPECT_EQ(d.maxNanos, 400 + 999);
  std::int64_t sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) sum += 100 * (t + 1) + (i % 1000);
  }
  EXPECT_EQ(d.sumNanos, sum);
}

// ------------------------------------------------------------ snapshot

TEST(ObsTest, SnapshotIsSortedAndDeterministic) {
  obs::MetricsRegistry reg;
  reg.GetCounter("zebra").Inc();
  reg.GetCounter("alpha").Inc(2);
  reg.GetGauge("mid").Set(-5);
  reg.GetHistogram("h").RecordNanos(500);

  const obs::MetricsSnapshot a = reg.Snapshot();
  const obs::MetricsSnapshot b = reg.Snapshot();
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.counters.size(), 2u);
  EXPECT_EQ(a.counters[0].first, "alpha");
  EXPECT_EQ(a.counters[1].first, "zebra");
  EXPECT_EQ(a.Counter("alpha"), 2u);
  EXPECT_EQ(a.Counter("absent"), 0u);
  EXPECT_EQ(a.Gauge("mid"), -5);
  ASSERT_NE(a.Histogram("h"), nullptr);
  EXPECT_EQ(a.Histogram("h")->count, 1u);
  EXPECT_EQ(a.Histogram("nope"), nullptr);
}

TEST(ObsTest, MergeSumsCountersAndGauges) {
  obs::MetricsSnapshot a;
  a.AddCounter("shared", 3);
  a.AddCounter("only_a", 1);
  a.AddGauge("g", 10);

  obs::MetricsSnapshot b;
  b.AddCounter("shared", 4);
  b.AddCounter("only_b", 2);
  b.AddGauge("g", -3);

  a.Merge(b);
  EXPECT_EQ(a.Counter("shared"), 7u);
  EXPECT_EQ(a.Counter("only_a"), 1u);
  EXPECT_EQ(a.Counter("only_b"), 2u);
  EXPECT_EQ(a.Gauge("g"), 7);
}

TEST(ObsTest, MergeHistogramsSumsExactlyAndSkipsEmpty) {
  // 10 samples at 100 and 30 at 2000: the merged p50 is 2000, which no
  // count-weighted average of the two inputs' p50s could report.
  obs::Histogram x, y;
  for (int i = 0; i < 10; ++i) x.RecordNanos(100);
  for (int i = 0; i < 30; ++i) y.RecordNanos(2000);
  y.RecordNanos(50);
  obs::MetricsSnapshot a;
  a.MergeHistogram("h", x.Digest());
  a.MergeHistogram("h", y.Digest());
  const obs::HistogramStat* m = a.Histogram("h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 41u);
  EXPECT_EQ(m->sumNanos, 10 * 100 + 30 * 2000 + 50);
  EXPECT_EQ(m->minNanos, 50);
  EXPECT_EQ(m->maxNanos, 2000);
  EXPECT_DOUBLE_EQ(m->MeanNanos(), (10 * 100.0 + 30 * 2000.0 + 50) / 41);
  EXPECT_EQ(m->Percentile(0.0), 50);
  EXPECT_EQ(m->Percentile(0.1), 100);
  EXPECT_EQ(m->Percentile(0.5), 2000);
  EXPECT_TRUE(m->Valid());

  // An empty digest neither perturbs the stats nor seeds min=0, and an
  // empty histogram adds no name.
  const obs::HistogramStat before = *m;
  a.MergeHistogram("h", obs::HistogramStat{});
  EXPECT_EQ(*a.Histogram("h"), before);
  a.MergeHistogram("never", obs::HistogramStat{});
  EXPECT_EQ(a.Histogram("never"), nullptr);
}

TEST(ObsTest, TextAndJsonRenderings) {
  obs::MetricsSnapshot s;
  s.AddCounter("c", 1);
  s.AddGauge("g", -2);
  obs::Histogram h;
  h.RecordNanos(10);
  h.RecordNanos(20);
  s.MergeHistogram("h", h.Digest());
  EXPECT_NE(s.ToText().find("c"), std::string::npos);
  EXPECT_NE(s.ToText().find("n=2 mean=15ns p50=20ns p99=20ns max=20ns"), std::string::npos);
  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\":1"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"count\":2,\"min_ns\":10,\"max_ns\":20,\"mean_ns\":15,"
                      "\"p50_ns\":20,\"p99_ns\":20}"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------- wire

TEST(ObsTest, StatsMessagesRoundTripOnTheWire) {
  proto::StatsReply reply;
  reply.reqId = 77;
  reply.nodeCount = 9;
  reply.snapshot.AddCounter("node.opens_served", 123);
  reply.snapshot.AddGauge("node.members", 8);
  obs::Histogram latency;
  for (const std::int64_t ns : {100LL, 350LL, 351LL, 880LL, 900LL, 70'000'000'000LL}) {
    latency.RecordNanos(ns);
  }
  reply.snapshot.MergeHistogram("open_latency", latency.Digest());

  const std::string bytes = proto::Encode(proto::Message(reply));
  const auto decoded = proto::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<proto::StatsReply>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->reqId, 77u);
  EXPECT_EQ(out->nodeCount, 9u);
  EXPECT_EQ(out->snapshot, reply.snapshot);

  const std::string queryBytes = proto::Encode(proto::Message(proto::StatsQuery{42}));
  const auto query = proto::Decode(queryBytes);
  ASSERT_TRUE(query.has_value());
  EXPECT_EQ(std::get<proto::StatsQuery>(*query).reqId, 42u);
}

// A StatsReply carrying only histogram `h`, encoded without validation.
std::string ReplyBytes(const obs::HistogramStat& h) {
  proto::StatsReply reply;
  reply.reqId = 1;
  reply.nodeCount = 1;
  reply.snapshot.histograms.emplace_back("h", h);
  return proto::Encode(proto::Message(reply));
}

TEST(ObsTest, HostileStatsReplyHistogramsAreRejected) {
  obs::Histogram source;
  for (const std::int64_t ns : {40, 5000, 5001, 90'000}) source.RecordNanos(ns);
  const obs::HistogramStat good = source.Digest();
  ASSERT_TRUE(proto::Decode(ReplyBytes(good)).has_value());

  const auto rejected = [](obs::HistogramStat h, const char* why) {
    EXPECT_FALSE(h.Valid()) << why;
    EXPECT_FALSE(proto::Decode(ReplyBytes(h)).has_value()) << why;
  };
  obs::HistogramStat h = good;
  h.buckets.back().first = obs::HistogramStat::kBuckets;
  rejected(h, "index out of range");
  h = good;
  std::swap(h.buckets[0], h.buckets[1]);
  rejected(h, "indices decrease");
  h = good;
  h.buckets[1].first = h.buckets[0].first;
  rejected(h, "index repeats");
  h = good;
  ++h.count;
  rejected(h, "counts sum short of count");
  h = good;
  h.buckets[0].second = ~std::uint64_t{0};  // the sum wraps round to `count`
  h.count = good.count - good.buckets[0].second - 1;
  rejected(h, "counts overflow");
  h = good;
  h.buckets[0].second = 0;
  h.count -= 1;
  rejected(h, "empty bucket");
  h = good;
  std::swap(h.minNanos, h.maxNanos);
  rejected(h, "min above max");

  // A bucket count claiming more entries than the frame holds: the
  // buckets (12 bytes each) end the frame, right after their u32 count.
  std::string bytes = ReplyBytes(good);
  const std::size_t countAt = bytes.size() - good.buckets.size() * 12 - 4;
  ASSERT_EQ(bytes[countAt], static_cast<char>(good.buckets.size()));
  bytes.replace(countAt, 4, std::string("\xff\xff\xff\x7f", 4));
  EXPECT_FALSE(proto::Decode(bytes).has_value());
  bytes.replace(countAt, 4, std::string("\x01\x08\x00\x00", 4));  // 2049 > kBuckets
  EXPECT_FALSE(proto::Decode(bytes).has_value());

  // Seeded byte garbling: whatever decodes is valid and safe to use.
  util::Rng rng(0xBAD5EED);
  const std::string clean = ReplyBytes(good);
  for (int i = 0; i < 20'000; ++i) {
    std::string garbled = clean;
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      garbled[rng.NextBelow(garbled.size())] = static_cast<char>(rng.Next());
    }
    if (rng.NextBool(0.2)) garbled.resize(rng.NextBelow(garbled.size()));
    const auto decoded = proto::Decode(garbled);
    if (!decoded.has_value()) continue;
    const auto* reply = std::get_if<proto::StatsReply>(&*decoded);
    if (reply == nullptr) continue;
    for (const auto& [name, stat] : reply->snapshot.histograms) {
      ASSERT_TRUE(stat.Valid());
      (void)stat.Percentile(0.99);
      obs::MetricsSnapshot fold;
      fold.MergeHistogram(name, stat);
      fold.MergeHistogram(name, stat);
    }
  }
}

// ------------------------------------------------- cluster aggregation

TEST(ObsTest, TreeAggregationMatchesPerNodeSums) {
  sim::ClusterSpec spec;
  spec.servers = 12;
  spec.fanout = 4;  // force supervisors: the query recurses two levels
  spec.cms.deadline = std::chrono::milliseconds(600);
  sim::SimCluster cluster(spec);
  cluster.Start();
  ASSERT_GE(cluster.SupervisorCount(), 1u);

  auto& client = cluster.NewClient();
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/store/w" + std::to_string(i);
    ASSERT_TRUE(cluster.PutFile(client, path, "data").ok());
    ASSERT_TRUE(cluster.ReadAll(client, path).ok());
  }

  const auto stats = cluster.ClusterStats(&client);
  ASSERT_TRUE(stats.ok);
  const std::uint32_t expectNodes = static_cast<std::uint32_t>(
      1 + cluster.SupervisorCount() + cluster.ServerCount());
  EXPECT_EQ(stats.nodeCount, expectNodes);
  EXPECT_EQ(stats.snapshot.Counter("node.count"), expectNodes);

  // The fold must equal the sum of every node's own snapshot.
  obs::MetricsSnapshot manual = cluster.head().SnapshotMetrics();
  for (std::size_t s = 0; s < cluster.SupervisorCount(); ++s) {
    manual.Merge(cluster.supervisor(s).SnapshotMetrics());
  }
  for (std::size_t l = 0; l < cluster.ServerCount(); ++l) {
    manual.Merge(cluster.server(l).SnapshotMetrics());
  }
  // Counters that the aggregation query itself bumps (stats_queries) are
  // captured before the reply is sent on each node, so compare the
  // workload-driven ones.
  for (const char* name :
       {"node.opens_served", "node.reads", "node.writes", "node.creates",
        "node.redirects_issued", "cache.hits", "cache.misses",
        "resolver.locates", "resolver.redirects"}) {
    EXPECT_EQ(stats.snapshot.Counter(name), manual.Counter(name)) << name;
  }
  EXPECT_GT(stats.snapshot.Counter("node.opens_served"), 0u);
  EXPECT_GT(stats.snapshot.Counter("node.writes"), 0u);
}

TEST(ObsTest, AggregationExcludesCrashedLeafAndSurvivesFailover) {
  sim::ClusterSpec spec;
  spec.servers = 4;
  spec.managers = 2;  // redundant heads
  spec.cms.deadline = std::chrono::milliseconds(600);
  sim::SimCluster cluster(spec);
  cluster.Start();

  auto& client = cluster.NewClient();
  ASSERT_TRUE(cluster.PutFile(client, "/store/f", "x").ok());

  cluster.CrashServer(0);
  cluster.engine().RunUntilIdle();

  // A crashed leaf is offline at the head: the fold covers the heads'
  // shared children minus the dead one. Both managers are heads of the
  // same member set, so the head folds itself + 3 live leaves.
  const auto stats = cluster.ClusterStats(&client);
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.nodeCount, 4u);  // head + 3 live leaves

  // Kill the primary head: the client rotates to the standby and the
  // query still completes there.
  cluster.CrashManager(0);
  const auto after = cluster.ClusterStats(&client);
  ASSERT_TRUE(after.ok);
  EXPECT_GE(after.nodeCount, 1u);
  EXPECT_GT(after.snapshot.Counter("node.count"), 0u);
}

// Names under the component prefixes every head exports (a meta-manager
// is a manager too). Every component writes its own names, so the set is
// pinned here rather than kept by hand in the head.
std::set<std::string> ComponentMetricNames(const obs::MetricsSnapshot& snap) {
  std::set<std::string> names;
  const auto keep = [&names](const std::string& name) {
    for (const std::string_view prefix :
         {"cache.", "resolver.", "respq.", "maintenance.", "membership."}) {
      if (name.compare(0, prefix.size(), prefix) == 0) names.insert(name);
    }
  };
  for (const auto& [name, _] : snap.counters) keep(name);
  for (const auto& [name, _] : snap.gauges) keep(name);
  for (const auto& [name, _] : snap.histograms) keep(name);
  return names;
}

TEST(ObsTest, ManagerExportsThePinnedComponentMetricNames) {
  sim::EventEngine engine;
  sim::SimFabric fabric(engine);
  xrd::NodeConfig managerConfig;
  managerConfig.role = xrd::NodeRole::kManager;
  managerConfig.name = "manager";
  managerConfig.addr = 1;
  xrd::ScallaNode manager(managerConfig, engine, fabric, nullptr);

  const auto managerNames = ComponentMetricNames(manager.SnapshotMetrics());
  EXPECT_EQ(managerNames.size(), 42u);
}

}  // namespace
}  // namespace scalla
