// Observability subsystem: metrics registry semantics, snapshot
// determinism and merging, the wire round-trip of stats messages,
// end-to-end tree aggregation over a simulated cluster (including a
// crashed leaf being excluded from the fold), and component-metric name
// parity between a cluster head and the meta-manager.
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <thread>

#include "fed/meta_manager.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "proto/wire.h"
#include "sim/cluster.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
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
  EXPECT_EQ(d.minNanos, 0);
  EXPECT_EQ(d.maxNanos, 0);
  EXPECT_EQ(d.meanNanos, 0.0);
  EXPECT_EQ(d.p50Nanos, 0.0);
  EXPECT_EQ(d.p99Nanos, 0.0);
}

TEST(ObsTest, HistogramDigestTracksRecordings) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.GetHistogram("lat");
  for (int i = 1; i <= 100; ++i) h.RecordNanos(i * 1000);
  const obs::HistogramStat d = h.Digest();
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.minNanos, 1000);
  EXPECT_EQ(d.maxNanos, 100000);
  EXPECT_NEAR(d.meanNanos, 50500.0, 1.0);
  EXPECT_GE(d.p99Nanos, d.p50Nanos);
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

TEST(ObsTest, MergeHistogramsWeightsByCountAndSkipsEmpty) {
  obs::HistogramStat x{/*count=*/10, /*min=*/100, /*max=*/1000,
                       /*mean=*/500.0, /*p50=*/450.0, /*p99=*/990.0};
  obs::HistogramStat y{/*count=*/30, /*min=*/50, /*max=*/2000,
                       /*mean=*/1000.0, /*p50=*/900.0, /*p99=*/1900.0};
  obs::MetricsSnapshot a;
  a.MergeHistogram("h", x);
  a.MergeHistogram("h", y);
  const obs::HistogramStat* m = a.Histogram("h");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 40u);
  EXPECT_EQ(m->minNanos, 50);
  EXPECT_EQ(m->maxNanos, 2000);
  EXPECT_NEAR(m->meanNanos, (10 * 500.0 + 30 * 1000.0) / 40, 1e-9);

  // An empty digest neither perturbs the stats nor seeds min=0.
  a.MergeHistogram("h", obs::HistogramStat{});
  EXPECT_EQ(a.Histogram("h")->count, 40u);
  EXPECT_EQ(a.Histogram("h")->minNanos, 50);
}

TEST(ObsTest, TextAndJsonRenderings) {
  obs::MetricsSnapshot s;
  s.AddCounter("c", 1);
  s.AddGauge("g", -2);
  s.MergeHistogram("h", obs::HistogramStat{2, 10, 20, 15.0, 15.0, 20.0});
  EXPECT_NE(s.ToText().find("c"), std::string::npos);
  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\":1"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------- wire

TEST(ObsTest, StatsMessagesRoundTripOnTheWire) {
  proto::StatsReply reply;
  reply.reqId = 77;
  reply.nodeCount = 9;
  reply.snapshot.AddCounter("node.opens_served", 123);
  reply.snapshot.AddGauge("node.members", 8);
  reply.snapshot.MergeHistogram("open_latency",
                                obs::HistogramStat{5, 100, 900, 400.5, 350.0, 880.0});

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

// Names under the component prefixes both kinds of head export. Every
// component writes its own names, so a manager and the meta-manager must
// carry exactly the same set; a hand-kept copy in either drifts.
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

TEST(ObsTest, ManagerAndMetaExportTheSameComponentMetricNames) {
  sim::EventEngine engine;
  sim::SimFabric fabric(engine);
  xrd::NodeConfig managerConfig;
  managerConfig.role = xrd::NodeRole::kManager;
  managerConfig.name = "manager";
  managerConfig.addr = 1;
  xrd::ScallaNode manager(managerConfig, engine, fabric, nullptr);
  fed::MetaConfig metaConfig;
  metaConfig.addr = 2;
  fed::MetaManager meta(metaConfig, engine, fabric);

  const auto managerNames = ComponentMetricNames(manager.SnapshotMetrics());
  EXPECT_EQ(managerNames.size(), 42u);
  EXPECT_EQ(ComponentMetricNames(meta.SnapshotMetrics()), managerNames);
}

}  // namespace
}  // namespace scalla
