#include "cms/selection.h"

namespace scalla::cms {

SelectionPolicy::SelectionPolicy(SelectCriterion criterion, std::uint64_t seed)
    : criterion_(criterion), rngState_(seed ? seed : 1) {}

ServerSlot SelectionPolicy::Choose(ServerSet candidates, ServerSet avoid,
                                   Membership& membership) {
  ServerSet usable = candidates.Without(avoid);
  if (usable.empty()) usable = candidates;
  if (usable.empty()) return -1;
  const ServerSlot choice = ChooseFrom(usable, membership);
  if (choice >= 0) membership.CountSelection(choice);
  return choice;
}

ServerSlot SelectionPolicy::ChooseFrom(ServerSet set, Membership& membership) {
  if (set.count() == 1) return set.first();

  switch (criterion_) {
    case SelectCriterion::kRoundRobin: {
      // First candidate strictly after the previous choice, wrapping.
      const ServerSlot after = set.next(lastChoice_ < 0 ? 63 : lastChoice_);
      lastChoice_ = after >= 0 ? after : set.first();
      return lastChoice_;
    }
    case SelectCriterion::kRandom: {
      // xorshift64*; pick the n-th member.
      rngState_ ^= rngState_ >> 12;
      rngState_ ^= rngState_ << 25;
      rngState_ ^= rngState_ >> 27;
      const std::uint64_t r = rngState_ * 0x2545F4914F6CDD1DULL;
      int n = static_cast<int>(r % static_cast<std::uint64_t>(set.count()));
      ServerSlot s = set.first();
      while (n-- > 0) s = set.next(s);
      return s;
    }
    case SelectCriterion::kLoad:
    case SelectCriterion::kSpace:
    case SelectCriterion::kFrequency: {
      ServerSlot best = -1;
      // Load & frequency prefer smaller metric; space prefers larger.
      std::uint64_t bestMetric = 0;
      for (ServerSlot s = set.first(); s >= 0; s = set.next(s)) {
        const auto info = membership.InfoOf(s);
        if (!info) continue;
        std::uint64_t metric = 0;
        switch (criterion_) {
          case SelectCriterion::kLoad:
            metric = info->locality * kLocalityScale + info->load;
            break;
          case SelectCriterion::kSpace: metric = info->freeSpace; break;
          default: metric = info->selectionCount; break;
        }
        const bool better = best < 0 || (criterion_ == SelectCriterion::kSpace
                                             ? metric > bestMetric
                                             : metric < bestMetric);
        if (better) {
          best = s;
          bestMetric = metric;
        }
      }
      return best >= 0 ? best : set.first();
    }
  }
  return set.first();
}

}  // namespace scalla::cms
