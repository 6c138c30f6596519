#include "obs/tree_aggregator.h"

#include <utility>

namespace scalla::obs {

TreeAggregator::TreeAggregator(net::NodeAddr self, sched::Executor& executor,
                               net::Fabric& fabric, Duration timeout)
    : self_(self), executor_(executor), fabric_(fabric), timeout_(timeout) {}

void TreeAggregator::OnQuery(net::NodeAddr requester, std::uint64_t reqId,
                             MetricsSnapshot local,
                             const std::vector<net::NodeAddr>& children) {
  if (children.empty()) {
    proto::StatsReply reply;
    reply.reqId = reqId;
    reply.nodeCount = 1;
    reply.snapshot = std::move(local);
    fabric_.Send(self_, requester, std::move(reply));
    return;
  }
  const std::uint64_t aggId = nextAggId_++;
  Pending& agg = pending_[aggId];
  agg.requester = requester;
  agg.requesterReqId = reqId;
  agg.acc = std::move(local);
  agg.nodeCount = 1;
  agg.outstanding = static_cast<int>(children.size());
  agg.timer = executor_.RunAfter(timeout_, [this, aggId] { Finish(aggId); });
  for (const net::NodeAddr child : children) {
    fabric_.Send(self_, child, proto::StatsQuery{aggId});
  }
}

void TreeAggregator::OnReply(const proto::StatsReply& reply) {
  const auto it = pending_.find(reply.reqId);
  if (it == pending_.end()) return;
  Pending& agg = it->second;
  agg.acc.Merge(reply.snapshot);
  agg.nodeCount += reply.nodeCount;
  if (--agg.outstanding <= 0) Finish(reply.reqId);
}

void TreeAggregator::Finish(std::uint64_t aggId) {
  const auto it = pending_.find(aggId);
  if (it == pending_.end()) return;
  Pending& agg = it->second;
  if (agg.timer != sched::kInvalidTimer) executor_.Cancel(agg.timer);
  proto::StatsReply reply;
  reply.reqId = agg.requesterReqId;
  reply.nodeCount = agg.nodeCount;
  reply.snapshot = std::move(agg.acc);
  const net::NodeAddr requester = agg.requester;
  pending_.erase(it);
  fabric_.Send(self_, requester, std::move(reply));
}

void TreeAggregator::Cancel() {
  for (auto& [_, agg] : pending_) {
    if (agg.timer != sched::kInvalidTimer) executor_.Cancel(agg.timer);
  }
  pending_.clear();
}

}  // namespace scalla::obs
