// Server selection. "If more than one node has the file, a selection is
// made based on configuration defined criteria (e.g., load, selection
// frequency, space, etc.)" (paper section II-B3).
#pragma once

#include "cms/membership.h"
#include "cms/types.h"

namespace scalla::cms {

enum class SelectCriterion {
  kRoundRobin,  // rotate through candidates (default)
  kLoad,        // lowest locality-weighted load (see kLocalityScale)
  kSpace,       // most free space
  kFrequency,   // least often selected
  kRandom,      // uniform (seeded; deterministic in tests)
};

/// Load units one locality step is worth under kLoad, which ranks a member
/// by locality * kLocalityScale + load: a far member wins only when every
/// nearer one is loaded past a full step.
inline constexpr std::uint64_t kLocalityScale = 1000;

class SelectionPolicy {
 public:
  explicit SelectionPolicy(SelectCriterion criterion = SelectCriterion::kRoundRobin,
                           std::uint64_t seed = 0x5e1ec7ULL);

  /// Picks one server out of `candidates` minus `avoid`, consulting the
  /// membership's per-server metrics. Falls back to ignoring `avoid` when
  /// it would leave nothing (a failing server is better than none only if
  /// it is the only choice — the client will then trigger a refresh).
  /// Returns -1 when candidates is empty. Records the selection for the
  /// frequency criterion.
  ServerSlot Choose(ServerSet candidates, ServerSet avoid, Membership& membership);

  SelectCriterion criterion() const { return criterion_; }

 private:
  ServerSlot ChooseFrom(ServerSet set, Membership& membership);

  SelectCriterion criterion_;
  ServerSlot lastChoice_ = -1;  // round-robin cursor
  std::uint64_t rngState_;
};

}  // namespace scalla::cms
