#include "util/rng.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace scalla::util {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = SplitMix64(seed);
}

std::uint64_t Rng::Next() {
  // xoshiro256**
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(NextBelow(static_cast<std::uint64_t>(hi - lo + 1)));
}

double Rng::NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

bool Rng::NextBool(double pTrue) { return NextDouble() < pTrue; }

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  cdf_.resize(n);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& v : cdf_) v /= sum;
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  std::size_t lo = 0, hi = cdf_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < cdf_.size() ? lo : cdf_.size() - 1;
}

std::string MakeFilePath(std::uint64_t run, std::uint64_t file) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/store/data/run%06llu/file%05llu.root",
                static_cast<unsigned long long>(run),
                static_cast<unsigned long long>(file));
  return buf;
}

}  // namespace scalla::util
