#include "obs/snapshot.h"

#include <algorithm>
#include <cstdio>

namespace scalla::obs {
namespace {

// Finds the slot for `name` in a name-sorted vector, inserting a default
// entry when absent. Returns the (possibly new) element.
template <typename V>
V& SortedSlot(std::vector<std::pair<std::string, V>>& table, const std::string& name) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  if (it != table.end() && it->first == name) return it->second;
  return table.insert(it, {name, V{}})->second;
}

template <typename V>
const V* SortedFind(const std::vector<std::pair<std::string, V>>& table,
                    const std::string& name) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  if (it != table.end() && it->first == name) return &it->second;
  return nullptr;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// The middle of bucket `index`: exact below 64 ns, else the centre of its
// power-of-two sub-range (see HistogramStat::BucketOf).
std::int64_t BucketMiddle(std::uint32_t index) {
  constexpr std::uint32_t kSub = 1u << HistogramStat::kSubBucketBits;
  if (index < kSub) return index;
  const int shift = static_cast<int>(index >> HistogramStat::kSubBucketBits) - 1;
  const std::uint64_t low = static_cast<std::uint64_t>(kSub + (index & (kSub - 1))) << shift;
  return static_cast<std::int64_t>(low + ((std::uint64_t{1} << shift) - 1) / 2);
}

}  // namespace

double HistogramStat::MeanNanos() const {
  return count == 0 ? 0.0 : static_cast<double>(sumNanos) / static_cast<double>(count);
}

std::int64_t HistogramStat::Percentile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::min(
      count - 1, static_cast<std::uint64_t>(q * static_cast<double>(count - 1) + 0.5));
  std::int64_t value = maxNanos;
  std::uint64_t seen = 0;
  for (const auto& [index, n] : buckets) {
    seen += n;
    if (seen > rank) {
      value = BucketMiddle(index);
      break;
    }
  }
  return std::max(minNanos, std::min(maxNanos, value));
}

void HistogramStat::Merge(const HistogramStat& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  auto a = buckets.begin();
  auto b = other.buckets.begin();
  while (a != buckets.end() || b != other.buckets.end()) {
    if (b == other.buckets.end() || (a != buckets.end() && a->first < b->first)) {
      merged.push_back(*a++);
    } else if (a == buckets.end() || b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
  count += other.count;
  // Unsigned addition: a hostile peer's sum wraps instead of overflowing.
  sumNanos = static_cast<std::int64_t>(static_cast<std::uint64_t>(sumNanos) +
                                       static_cast<std::uint64_t>(other.sumNanos));
  minNanos = std::min(minNanos, other.minNanos);
  maxNanos = std::max(maxNanos, other.maxNanos);
}

bool HistogramStat::Valid() const {
  std::uint64_t total = 0;
  std::uint32_t lowest = 0;  // the least index the next bucket may have
  for (const auto& [index, n] : buckets) {
    if (index < lowest || index >= kBuckets || n == 0 || total + n < total) return false;
    lowest = index + 1;
    total += n;
  }
  return total == count && (count == 0 || minNanos <= maxNanos);
}

void MetricsSnapshot::AddCounter(const std::string& name, std::uint64_t delta) {
  SortedSlot(counters, name) += delta;
}

void MetricsSnapshot::AddGauge(const std::string& name, std::int64_t delta) {
  SortedSlot(gauges, name) += delta;
}

void MetricsSnapshot::MergeHistogram(const std::string& name, const HistogramStat& h) {
  if (h.count == 0) return;  // empty histograms carry no information
  SortedSlot(histograms, name).Merge(h);
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) AddCounter(name, v);
  for (const auto& [name, v] : other.gauges) AddGauge(name, v);
  for (const auto& [name, h] : other.histograms) MergeHistogram(name, h);
}

std::uint64_t MetricsSnapshot::Counter(const std::string& name) const {
  const std::uint64_t* v = SortedFind(counters, name);
  return v == nullptr ? 0 : *v;
}

std::int64_t MetricsSnapshot::Gauge(const std::string& name) const {
  const std::int64_t* v = SortedFind(gauges, name);
  return v == nullptr ? 0 : *v;
}

const HistogramStat* MetricsSnapshot::Histogram(const std::string& name) const {
  return SortedFind(histograms, name);
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char buf[256];
  for (const auto& [name, v] : counters) {
    std::snprintf(buf, sizeof(buf), "%-40s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(buf, sizeof(buf), "%-40s %lld\n", name.c_str(),
                  static_cast<long long>(v));
    out += buf;
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%-40s n=%llu mean=%.0fns p50=%lldns p99=%lldns max=%lldns\n",
                  name.c_str(), static_cast<unsigned long long>(h.count), h.MeanNanos(),
                  static_cast<long long>(h.Percentile(0.5)),
                  static_cast<long long>(h.Percentile(0.99)),
                  static_cast<long long>(h.maxNanos));
    out += buf;
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":{\"count\":" + std::to_string(h.count) +
           ",\"min_ns\":" + std::to_string(h.minNanos) +
           ",\"max_ns\":" + std::to_string(h.maxNanos) +
           ",\"mean_ns\":" + JsonNumber(h.MeanNanos()) +
           ",\"p50_ns\":" + std::to_string(h.Percentile(0.5)) +
           ",\"p99_ns\":" + std::to_string(h.Percentile(0.99)) + '}';
  }
  out += "}}";
  return out;
}

}  // namespace scalla::obs
