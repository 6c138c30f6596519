// E10 — section III-C2: a processing deadline on each location object
// synchronizes query issuance — "an active deadline implies that some
// thread is in the process of issuing queries", so concurrent clients for
// the same unknown file produce ONE flood, with "no additional locks or
// queues". The ablation removes the synchronization: every arriving client
// re-floods.
#include <variant>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "sim/cluster.h"

namespace scalla {
namespace {

using bench::Fmt;

struct Result {
  std::uint64_t queryMessages = 0;
  double meanLatencyUs = 0;
  std::size_t resolved = 0;
};

Result Run(int concurrentClients, bool deadlineSync) {
  sim::ClusterSpec spec;
  spec.servers = 32;
  spec.cms.deadlineSync = deadlineSync;
  // Response latency long enough that all clients arrive mid-resolution.
  spec.latency.linkLatency = std::chrono::milliseconds(5);
  sim::SimCluster cluster(spec);
  cluster.Start();
  cluster.PlaceFile(7, "/store/thundering-herd", "x");
  cluster.fabric().ResetCounters();

  std::vector<client::ScallaClient*> clients;
  for (int c = 0; c < concurrentClients; ++c) clients.push_back(&cluster.NewClient());

  Result result;
  std::size_t done = 0;
  obs::Histogram rec;
  const TimePoint t0 = cluster.engine().Now();
  for (auto* c : clients) {
    c->Open("/store/thundering-herd", cms::AccessMode::kRead, false,
            [&done, &rec, &cluster, t0](const client::OpenOutcome& o) {
              ++done;
              if (o.err == proto::XrdErr::kNone) {
                rec.Record(cluster.engine().Now() - t0);
              }
            });
  }
  cluster.engine().RunUntilPredicate(
      [&done, &clients] { return done == clients.size(); },
      cluster.engine().Now() + std::chrono::minutes(2));

  result.queryMessages =
      cluster.fabric().DeliveredOfType(proto::Message(proto::CmsQuery{}).index());
  result.meanLatencyUs = rec.MeanNanos() / 1e3;
  result.resolved = rec.count();
  return result;
}

}  // namespace
}  // namespace scalla

int main() {
  using namespace scalla;
  bench::PrintHeader(
      "E10", "deadline-based query synchronization",
      "an active deadline prohibits multiple threads from issuing queries; "
      "concurrent clients for one unknown file cause a single flood");

  bench::Table table({"concurrent clients", "deadline sync", "query msgs",
                      "floods (32 msgs each)", "mean resolve latency"});
  std::uint64_t syncMsgs64 = 0, ablatedMsgs64 = 0;
  for (const int clients : {1, 4, 16, 64}) {
    for (const bool sync : {true, false}) {
      const auto r = Run(clients, sync);
      if (clients == 64) (sync ? syncMsgs64 : ablatedMsgs64) = r.queryMessages;
      table.AddRow({Fmt("%d", clients), sync ? "on (Scalla)" : "off",
                    Fmt("%llu", static_cast<unsigned long long>(r.queryMessages)),
                    Fmt("%.1f", static_cast<double>(r.queryMessages) / 32.0),
                    Fmt("%.0fus", r.meanLatencyUs)});
    }
  }
  table.Print();
  std::printf("With deadlines, query traffic is independent of the client count;\n"
              "without them every late-arriving client re-floods the cluster.\n\n");
  std::printf("JSON {\"bench\":\"deadline_sync\",\"clients\":64,"
              "\"query_msgs_synced\":%llu,\"query_msgs_ablated\":%llu}\n",
              static_cast<unsigned long long>(syncMsgs64),
              static_cast<unsigned long long>(ablatedMsgs64));
  return 0;
}
