#include "sim/sim_fabric.h"

#include <algorithm>
#include <utility>

namespace scalla::sim {

SimFabric::SimFabric(EventEngine& engine, LatencyModel model, net::FabricOptions options)
    : engine_(engine), model_(model), options_(options) {
  net::RequireValidFabricOptions(options_);
}

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
  const std::uint64_t pair = PairKey(from, to);
  std::uint64_t& inFlight = inFlight_[pair];
  if (inFlight >= options_.maxQueuedMessages) {
    ++counters_.messagesDropped;
    ++counters_.queueOverflows;
    ++perPeer_[to].messagesDropped;
    ++perPeer_[to].queueOverflows;
    SignalPeerDown(from, to);
    return;
  }
  ++inFlight;
  const std::size_t type = message.index();
  auto deliver = [this, from, to, pair, msg = std::move(message), type]() mutable {
    auto& inFlightNow = inFlight_[pair];
    if (inFlightNow > 0) --inFlightNow;
    // Re-check at delivery time: a fault injected while the message was
    // "in flight" loses it.
    if (Check(from, to).fate != net::FaultVerdict::Fate::kDeliver) {
      ++counters_.messagesDropped;
      ++perPeer_[to].messagesDropped;
      return;
    }
    ++counters_.messagesDelivered;
    ++perPeer_[from].messagesDelivered;
    ++deliveredByType_[type];
    sinks_[to]->OnMessage(from, std::move(msg));
  };
  const TimePoint arrival = engine_.Now() + model_.linkLatency + verdict.delay;
  if (verdict.delay == Duration::zero() && held_.count(pair) == 0) {
    engine_.ScheduleAt(ServiceDone(to, arrival), std::move(deliver));
    return;
  }
  // A held message (an injected delay, or a later one on the same pair)
  // takes its receiver's service slot only when it arrives, so the delay
  // holds back its own pair and no other sender; the pair keeps its send
  // order.
  Held& held = held_[pair];
  held.arrival = std::max(held.arrival, arrival);
  ++held.count;
  engine_.ScheduleAt(held.arrival, [this, pair, to, deliver = std::move(deliver)]() mutable {
    if (--held_[pair].count == 0) held_.erase(pair);
    engine_.ScheduleAt(ServiceDone(to, engine_.Now()), std::move(deliver));
  });
}

TimePoint SimFabric::ServiceDone(net::NodeAddr to, TimePoint arrival) {
  // Single-threaded receiver model: the message starts service when it
  // arrives AND the receiver is free; its handler runs at service completion.
  if (!model_.serialService) return arrival + model_.serviceTime;
  TimePoint& busy = busyUntil_[to];
  busy = std::max(arrival, busy) + model_.serviceTime;
  return busy;
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
