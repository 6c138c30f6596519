// MetricsRegistry: named Counter/Gauge/Histogram instruments with a cheap
// Snapshot(). Instruments live as long as the registry (std::map gives
// stable addresses), so hot paths hold plain references and pay relaxed
// atomic ops per event, never a lock. Snapshot() is safe against
// concurrent writers, which is what lets the daemon thread and the stats
// protocol read while actors write.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>

#include "obs/snapshot.h"
#include "util/types.h"

namespace scalla::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, open handles); can go down.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Latency distribution in HistogramStat's fixed buckets (16 KiB, about
/// 1.6% relative error). Record takes no lock and never allocates: it adds
/// to one bucket and the sum, and touches min/max only on a new extreme.
/// Negative durations record as 0.
class Histogram {
 public:
  void Record(Duration d) { RecordNanos(d.count()); }
  void RecordNanos(std::int64_t ns) {
    if (ns < 0) ns = 0;
    std::int64_t seen = min_.load(std::memory_order_relaxed);
    while (ns < seen && !min_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (ns > seen && !max_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
    }
    sum_.fetch_add(ns, std::memory_order_relaxed);
    // Release: a Digest that sees this count also sees min/max cover it.
    buckets_[HistogramStat::BucketOf(ns)].fetch_add(1, std::memory_order_release);
  }

  std::uint64_t count() const;
  double MeanNanos() const;

  /// Point-in-time copy; all-zero when empty. Safe beside Record.
  HistogramStat Digest() const;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramStat::kBuckets> buckets_{};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{0};
};

/// Owns instruments by name. GetX() registers on first use and returns the
/// same instrument on every later call, so call sites can cache references.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Point-in-time copy of every instrument, name-sorted.
  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;  // guards map shape only, not instrument values
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace scalla::obs
