// MetricsSnapshot: a point-in-time, plain-data copy of a MetricsRegistry.
// Snapshots travel on the wire (kStatsReply) and merge up the cluster tree,
// so this header depends only on the standard library — proto/messages.h
// includes it to embed a snapshot in a message struct.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace scalla::obs {

/// A latency distribution as log-linear bucket counts, HdrHistogram-style.
/// Values below 64 ns have a bucket each; every power of two above that
/// splits into 64 equal buckets, so a bucket spans at most 1/64 (1.6%) of
/// its values. 2048 buckets reach 2^37 ns (137 s); larger values land in
/// the last bucket. Count, sum, min and max are exact, so a merge is an
/// exact sum and a merged percentile is the pooled samples' percentile.
/// This struct is the only place that knows the bucket layout.
struct HistogramStat {
  static constexpr int kSubBucketBits = 6;
  static constexpr std::uint32_t kBuckets = 2048;

  /// The bucket `ns` counts in; negative values count as 0.
  static constexpr std::uint32_t BucketOf(std::int64_t ns) {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    if (v < (1u << kSubBucketBits)) return static_cast<std::uint32_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBucketBits;
    const std::uint64_t index =
        (static_cast<std::uint64_t>(shift) << kSubBucketBits) + (v >> shift);
    return index < kBuckets ? static_cast<std::uint32_t>(index) : kBuckets - 1;
  }

  std::uint64_t count = 0;
  std::int64_t sumNanos = 0;
  std::int64_t minNanos = 0;
  std::int64_t maxNanos = 0;
  /// The non-empty buckets as (index, count), indices strictly increasing;
  /// the counts sum to `count`.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  bool operator==(const HistogramStat&) const = default;

  /// 0 when empty.
  double MeanNanos() const;
  /// Nearest-rank quantile, q in [0,1]: the bucket holding sample
  /// round(q·(count−1)) in sorted order, reported as that bucket's middle
  /// clamped to [minNanos, maxNanos] (so equal samples report exactly).
  /// 0 when empty.
  std::int64_t Percentile(double q) const;
  /// Folds `other` in: counts, sums and buckets add, min/max take extremes.
  void Merge(const HistogramStat& other);
  /// The invariants a decoded stat must hold before Percentile trusts it:
  /// buckets in range, strictly increasing and non-empty, counts summing
  /// to `count`, and minNanos <= maxNanos when not empty.
  bool Valid() const;
};

/// Name→value tables, each kept sorted by name so snapshots are
/// deterministic and two snapshots of the same cluster state compare equal.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStat>> histograms;

  bool operator==(const MetricsSnapshot&) const = default;

  /// Adds `delta` to the named counter, inserting it (sorted) if missing.
  void AddCounter(const std::string& name, std::uint64_t delta);
  /// Adds `delta` to the named gauge, inserting it (sorted) if missing.
  void AddGauge(const std::string& name, std::int64_t delta);
  /// Merges a histogram into the named one (HistogramStat::Merge); an
  /// empty histogram adds nothing, not even the name.
  void MergeHistogram(const std::string& name, const HistogramStat& h);

  /// Folds `other` into this snapshot (counter/gauge sums, histogram merges).
  void Merge(const MetricsSnapshot& other);

  /// Value lookups; 0 / nullptr when the name is absent.
  std::uint64_t Counter(const std::string& name) const;
  std::int64_t Gauge(const std::string& name) const;
  const HistogramStat* Histogram(const std::string& name) const;

  /// Single-line-per-metric human listing, sorted by name.
  std::string ToText() const;
  /// Compact JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

}  // namespace scalla::obs
