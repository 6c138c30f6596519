#include "net/fault_table.h"

namespace scalla::net {
namespace {

std::uint64_t PairKey(NodeAddr from, NodeAddr to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

std::uint64_t LinkKey(NodeAddr a, NodeAddr b) {
  return a < b ? PairKey(b, a) : PairKey(a, b);
}

template <typename Set, typename Key>
void Toggle(Set& set, const Key& key, bool on) {
  if (on) {
    set.insert(key);
  } else {
    set.erase(key);
  }
}

}  // namespace

void FaultTable::SetDown(NodeAddr addr, bool down) {
  std::lock_guard lock(mu_);
  Toggle(down_, addr, down);
  PublishLocked();
}

void FaultTable::SetLinkCut(NodeAddr a, NodeAddr b, bool cut) {
  std::lock_guard lock(mu_);
  Toggle(cutLinks_, LinkKey(a, b), cut);
  PublishLocked();
}

void FaultTable::SetDrop(NodeAddr from, NodeAddr to, bool drop) {
  std::lock_guard lock(mu_);
  Toggle(drops_, PairKey(from, to), drop);
  PublishLocked();
}

void FaultTable::SetDelay(NodeAddr from, NodeAddr to, Duration delay) {
  std::lock_guard lock(mu_);
  if (delay > Duration::zero()) {
    delays_[PairKey(from, to)] = delay;
  } else {
    delays_.erase(PairKey(from, to));
  }
  PublishLocked();
}

void FaultTable::SetWedged(NodeAddr addr, bool wedged) {
  std::lock_guard lock(mu_);
  Toggle(wedged_, addr, wedged);
  PublishLocked();
}

void FaultTable::PublishLocked() {
  any_.store(!down_.empty() || !wedged_.empty() || !cutLinks_.empty() ||
                 !drops_.empty() || !delays_.empty(),
             std::memory_order_release);
}

FaultVerdict FaultTable::Check(NodeAddr from, NodeAddr to) const {
  using Fate = FaultVerdict::Fate;
  if (!any_.load(std::memory_order_acquire)) return {};
  std::lock_guard lock(mu_);
  if (wedged_.count(from) != 0 || wedged_.count(to) != 0) return {Fate::kLose};
  const bool senderDown = down_.count(from) != 0;
  if (senderDown || down_.count(to) != 0 || cutLinks_.count(LinkKey(from, to)) != 0) {
    return {senderDown ? Fate::kLose : Fate::kLosePeerDown};
  }
  if (drops_.count(PairKey(from, to)) != 0) return {Fate::kLose};
  const auto it = delays_.find(PairKey(from, to));
  return {Fate::kDeliver, it == delays_.end() ? Duration::zero() : it->second};
}

}  // namespace scalla::net
