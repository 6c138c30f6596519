// Allocation audit for obs::Histogram::Record. A histogram is a fixed
// array of bucket counters, so recording touches no allocator from the
// very first sample, whatever the value. This binary replaces global
// operator new/delete with counting versions and asserts the count does
// not move while samples are recorded.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/metrics.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scalla::obs {
namespace {

TEST(ObsAllocTest, RecordAllocatesNothing) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("client.open_latency");  // registration may allocate

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::int64_t i = 0; i < 1'000'000; ++i) {
    // Sweep every octave, the overflow bucket and negative durations.
    h.RecordNanos((i * 2654435761) % (std::int64_t{1} << 40) - 1000);
    h.Record(std::chrono::microseconds(i % 5000));
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "Histogram::Record allocated";
  EXPECT_EQ(h.count(), 2'000'000u);
}

}  // namespace
}  // namespace scalla::obs
