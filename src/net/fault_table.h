// The injected-fault state behind net::FaultInjector, shared by SimFabric
// and TcpFabric so both transports judge a frame with the same code.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "net/fabric.h"

namespace scalla::net {

/// What the injected faults do to one frame from -> to.
struct FaultVerdict {
  enum class Fate : std::uint8_t {
    kDeliver,       // no fault applies: deliver after `delay`
    kLose,          // lost silently: a wedged end, a downed sender, a drop
    kLosePeerDown,  // lost, and the sender learns its peer is gone
  };
  Fate fate = Fate::kDeliver;
  Duration delay = Duration::zero();  // injected one-way delay (kDeliver only)
};

/// Thread-safe: setters and Check may race (TcpFabric checks from event
/// loops and sender threads while tests inject faults).
class FaultTable {
 public:
  void SetDown(NodeAddr addr, bool down);
  void SetLinkCut(NodeAddr a, NodeAddr b, bool cut);
  void SetDrop(NodeAddr from, NodeAddr to, bool drop);
  void SetDelay(NodeAddr from, NodeAddr to, Duration delay);
  void SetWedged(NodeAddr addr, bool wedged);

  /// One verdict, in the order both transports apply: a wedged end loses
  /// the frame silently (its connections still look up); a downed end or
  /// a cut link loses it and signals OnPeerDown unless the sender itself
  /// is down; a drop loses it silently; otherwise it is delivered after
  /// the injected delay. While no fault is set this is one atomic load and
  /// takes no lock; otherwise it takes the table's lock once.
  FaultVerdict Check(NodeAddr from, NodeAddr to) const;

 private:
  void PublishLocked();  // refreshes any_ after a setter, under mu_

  std::atomic<bool> any_{false};  // some fault set below is non-empty
  mutable std::mutex mu_;
  std::unordered_set<NodeAddr> down_;
  std::unordered_set<NodeAddr> wedged_;
  std::unordered_set<std::uint64_t> cutLinks_;          // key: max<<32|min
  std::unordered_set<std::uint64_t> drops_;             // key: from<<32|to
  std::unordered_map<std::uint64_t, Duration> delays_;  // key: from<<32|to
};

}  // namespace scalla::net
