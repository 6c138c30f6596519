#include "sim/sim_fabric.h"

#include <algorithm>
#include <utility>

namespace scalla::sim {

SimFabric::SimFabric(EventEngine& engine, LatencyModel model, std::uint64_t seed,
                     net::FabricOptions options)
    : engine_(engine), model_(model), rng_(seed), options_(options) {}

void SimFabric::Register(net::NodeAddr addr, net::MessageSink* sink) {
  sinks_[addr] = sink;
}

void SimFabric::Unregister(net::NodeAddr addr) { sinks_.erase(addr); }

net::FaultVerdict SimFabric::Check(net::NodeAddr from, net::NodeAddr to) const {
  net::FaultVerdict verdict = faults_.Check(from, to);
  if (verdict.fate == net::FaultVerdict::Fate::kDeliver && sinks_.count(to) == 0) {
    verdict.fate = net::FaultVerdict::Fate::kLosePeerDown;
  }
  return verdict;
}

void SimFabric::SignalPeerDown(net::NodeAddr from, net::NodeAddr to) {
  // Model a broken connection: the sender learns its peer is gone.
  const auto senderIt = sinks_.find(from);
  if (senderIt == sinks_.end()) return;
  net::MessageSink* sender = senderIt->second;
  engine_.Post([sender, to] { sender->OnPeerDown(to); });
}

void SimFabric::Send(net::NodeAddr from, net::NodeAddr to, proto::Message message) {
  ++counters_.messagesSent;
  ++perPeer_[to].messagesSent;
  const net::FaultVerdict verdict = Check(from, to);
  if (verdict.fate != net::FaultVerdict::Fate::kDeliver) {
    ++counters_.messagesDropped;
    ++perPeer_[to].messagesDropped;
    if (verdict.fate == net::FaultVerdict::Fate::kLosePeerDown) SignalPeerDown(from, to);
    return;
  }
  // The same bounded-queue semantics as the TCP transport: too many
  // messages in flight on one (from,to) pair overflows, drops, and
  // signals the sender.
  std::uint64_t& inFlight = inFlight_[PairKey(from, to)];
  if (inFlight >= options_.maxQueuedMessages) {
    ++counters_.messagesDropped;
    ++counters_.queueOverflows;
    ++perPeer_[to].messagesDropped;
    ++perPeer_[to].queueOverflows;
    SignalPeerDown(from, to);
    return;
  }
  ++inFlight;
  Duration wire = model_.linkLatency;
  if (model_.jitter > Duration::zero()) {
    wire += Duration(static_cast<std::int64_t>(
        rng_.NextBelow(static_cast<std::uint64_t>(model_.jitter.count()))));
  }
  wire += verdict.delay;
  // Single-threaded receiver model: the message starts service when it
  // arrives AND the receiver is free; handler runs at service completion.
  TimePoint deliverAt = engine_.Now() + wire + model_.serviceTime;
  if (model_.serialService) {
    const TimePoint arrival = engine_.Now() + wire;
    TimePoint& busy = busyUntil_[to];
    const TimePoint start = std::max(arrival, busy);
    busy = start + model_.serviceTime;
    deliverAt = busy;
  }
  const std::size_t type = message.index();
  engine_.ScheduleAt(deliverAt,
                     [this, from, to, msg = std::move(message), type]() mutable {
                       auto& inFlightNow = inFlight_[PairKey(from, to)];
                       if (inFlightNow > 0) --inFlightNow;
                       // Re-check at delivery time: a fault injected while
                       // the message was "in flight" loses it.
                       if (Check(from, to).fate != net::FaultVerdict::Fate::kDeliver) {
                         ++counters_.messagesDropped;
                         ++perPeer_[to].messagesDropped;
                         return;
                       }
                       ++counters_.messagesDelivered;
                       ++perPeer_[from].messagesDelivered;
                       ++deliveredByType_[type];
                       sinks_[to]->OnMessage(from, std::move(msg));
                     });
}

net::Fabric::Counters SimFabric::GetCounters() const { return counters_; }

net::Fabric::Counters SimFabric::PerPeerCounters(net::NodeAddr peer) const {
  const auto it = perPeer_.find(peer);
  return it == perPeer_.end() ? Counters{} : it->second;
}

std::uint64_t SimFabric::DeliveredOfType(std::size_t variantIndex) const {
  const auto it = deliveredByType_.find(variantIndex);
  return it == deliveredByType_.end() ? 0 : it->second;
}

void SimFabric::ResetCounters() {
  counters_ = Counters{};
  perPeer_.clear();
  deliveredByType_.clear();
}

}  // namespace scalla::sim
