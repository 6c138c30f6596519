// In-process message fabric with a configurable latency model, driven by
// the discrete-event engine. Reproduces the paper's LAN environment shape:
// a per-link one-way latency (default 25 us) plus a per-message CPU
// service time (default 5 us). Implements the full
// net::FaultInjector surface (down, cut, drop, delay, wedge) so chaos
// scenarios written against net::Fabric* run unchanged over the simulator
// and over real sockets, and per-message-type counters for the
// protocol-efficiency experiment (E06).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "net/fabric.h"
#include "net/fault_table.h"
#include "sim/event_engine.h"

namespace scalla::sim {

struct LatencyModel {
  Duration linkLatency = std::chrono::microseconds(25);   // one-way wire+stack
  Duration serviceTime = std::chrono::microseconds(5);    // receiver CPU cost
  // When true (default) each endpoint serves messages one at a time, so
  // offered load queues behind a busy receiver — the contention that makes
  // "redirection time rises with a very low linear slope as load
  // increases" (paper section II-B5) measurable. When false, delivery is
  // pure delay (infinite receiver capacity).
  bool serialService = true;
};

class SimFabric final : public net::Fabric {
 public:
  /// `options` is the same struct the TCP transport takes; the simulator
  /// honours maxQueuedMessages semantically (as a per-(from,to) in-flight
  /// bound) and ignores the socket-level knobs (timeouts, sendBufferBytes),
  /// which have no in-process analogue.
  explicit SimFabric(EventEngine& engine, LatencyModel model = {},
                     net::FabricOptions options = {});

  /// Registers an endpoint. Delivery runs as an engine event.
  void Register(net::NodeAddr addr, net::MessageSink* sink);
  void Unregister(net::NodeAddr addr);

  // ---- net::Fabric ----
  void Send(net::NodeAddr from, net::NodeAddr to, proto::Message message) override;
  Counters GetCounters() const override;
  Counters PerPeerCounters(net::NodeAddr peer) const override;

  // ---- net::FaultInjector ----
  void SetDown(net::NodeAddr addr, bool down) override { faults_.SetDown(addr, down); }
  void SetLinkCut(net::NodeAddr a, net::NodeAddr b, bool cut) override {
    faults_.SetLinkCut(a, b, cut);
  }
  void SetDrop(net::NodeAddr from, net::NodeAddr to, bool drop) override {
    faults_.SetDrop(from, to, drop);
  }
  /// Extra one-way latency added to each message from -> to (the sim
  /// analogue of the TCP transport's per-pair send pacing). Zero clears.
  void SetDelay(net::NodeAddr from, net::NodeAddr to, Duration delay) override {
    faults_.SetDelay(from, to, delay);
  }
  void SetWedged(net::NodeAddr addr, bool wedged) override {
    faults_.SetWedged(addr, wedged);
  }

  /// Per-message-type delivered counts, keyed by variant index (E06).
  std::uint64_t DeliveredOfType(std::size_t variantIndex) const;
  void ResetCounters();

 private:
  /// The fault table's verdict, plus the simulator's own reachability
  /// rule: an unregistered destination is a broken connection.
  net::FaultVerdict Check(net::NodeAddr from, net::NodeAddr to) const;
  void SignalPeerDown(net::NodeAddr from, net::NodeAddr to);
  static std::uint64_t PairKey(net::NodeAddr from, net::NodeAddr to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  EventEngine& engine_;
  LatencyModel model_;
  net::FabricOptions options_;
  std::unordered_map<net::NodeAddr, net::MessageSink*> sinks_;
  std::unordered_map<net::NodeAddr, TimePoint> busyUntil_;  // per-receiver queue
  net::FaultTable faults_;
  std::unordered_map<std::uint64_t, std::uint64_t> inFlight_;  // per-pair bound
  Counters counters_;
  std::map<net::NodeAddr, Counters> perPeer_;
  std::unordered_map<std::size_t, std::uint64_t> deliveredByType_;
};

}  // namespace scalla::sim
