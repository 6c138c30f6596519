// Deterministic pseudo-randomness for workload generation: xoshiro256**
// seeded via SplitMix64, plus the samplers the benchmark harness needs
// (uniform ranges, Zipf file popularity, exponential inter-arrival times).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scalla::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5ca11a0ULL);

  std::uint64_t Next();

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform in [0, 1).
  double NextDouble();

  bool NextBool(double pTrue = 0.5);

 private:
  std::uint64_t s_[4];
};

/// Zipf-distributed ranks in [0, n), exponent `s` (s = 0 is uniform). Uses
/// the standard rejection-inversion-free CDF table for the modest n the
/// benches use; O(log n) per sample.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Sample(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Generates plausible HEP-style file paths ("/store/data/run001234/
/// file00042.root"), so hash benches exercise realistic key shapes.
std::string MakeFilePath(std::uint64_t run, std::uint64_t file);

}  // namespace scalla::util
