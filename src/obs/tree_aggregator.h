// StatsQuery fan-in for the cluster tree. A head answers a StatsQuery by
// re-asking each child under a request id of its own, folding the replies
// into its local snapshot, and answering once every child has replied or
// the timeout fires, whichever comes first. Cluster heads and the
// meta-manager share this one implementation.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/fabric.h"
#include "obs/snapshot.h"
#include "sched/executor.h"

namespace scalla::obs {

class TreeAggregator {
 public:
  /// Replies and downward queries are sent from `self`.
  TreeAggregator(net::NodeAddr self, sched::Executor& executor, net::Fabric& fabric,
                 Duration timeout);
  ~TreeAggregator() { Cancel(); }

  TreeAggregator(const TreeAggregator&) = delete;
  TreeAggregator& operator=(const TreeAggregator&) = delete;

  /// Answers query `reqId` from `requester`: at once with `local` when
  /// `children` is empty, else with `local` folded with every child's
  /// (already subtree-aggregated) reply.
  void OnQuery(net::NodeAddr requester, std::uint64_t reqId, MetricsSnapshot local,
               const std::vector<net::NodeAddr>& children);
  /// Folds one child's reply. The caller drops replies from strangers;
  /// late replies (after the timeout answered) are ignored here.
  void OnReply(const proto::StatsReply& reply);
  /// Drops every pending fold; requesters hit their own timeouts, just as
  /// they would on a crash.
  void Cancel();

 private:
  void Finish(std::uint64_t aggId);

  struct Pending {
    net::NodeAddr requester = 0;
    std::uint64_t requesterReqId = 0;
    MetricsSnapshot acc;
    std::uint32_t nodeCount = 0;
    int outstanding = 0;
    sched::TimerId timer = sched::kInvalidTimer;
  };

  const net::NodeAddr self_;
  sched::Executor& executor_;
  net::Fabric& fabric_;
  const Duration timeout_;
  // Keyed by the reqId of this node's downward queries; replies echo it.
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t nextAggId_ = 1;
};

}  // namespace scalla::obs
