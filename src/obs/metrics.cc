#include "obs/metrics.h"

namespace scalla::obs {

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& bucket : buckets_) n += bucket.load(std::memory_order_relaxed);
  return n;
}

double Histogram::MeanNanos() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0
                : static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                      static_cast<double>(n);
}

HistogramStat Histogram::Digest() const {
  HistogramStat d;
  for (std::uint32_t i = 0; i < HistogramStat::kBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_acquire);
    if (n == 0) continue;
    d.buckets.emplace_back(i, n);
    d.count += n;
  }
  if (d.count == 0) return d;
  d.sumNanos = sum_.load(std::memory_order_relaxed);
  d.minNanos = min_.load(std::memory_order_relaxed);
  d.maxNanos = max_.load(std::memory_order_relaxed);
  return d;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard lock(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard lock(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard lock(mu_);
  return histograms_[name];
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c.Value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g.Value());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h.Digest());
  }
  return snap;
}

}  // namespace scalla::obs
