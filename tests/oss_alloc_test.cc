// Allocation audit for MemOss's index. Every leaf answers the query flood
// with StateOf, so a look-up must not touch the allocator, and neither
// must Stat. Once freed records and path space are there to reuse, an
// unlink followed by a create of a path of the same length allocates
// nothing either. This binary replaces global operator new/delete with
// counting versions and asserts the count does not move.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "oss/mem_oss.h"
#include "util/clock.h"
#include "util/rng.h"

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

namespace scalla::oss {
namespace {

constexpr int kFiles = 100000;

class OssAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Paths are made up front: the store must not allocate, the test
    // driver may.
    for (int i = 0; i < kFiles; ++i) {
      present_.push_back(util::MakeFilePath(i / 1000, i % 1000));
      absent_.push_back(util::MakeFilePath(1000 + i / 1000, i % 1000));
      store_.Put(present_.back(), "");
    }
  }

  std::size_t Allocations() const { return g_allocations.load(std::memory_order_relaxed); }

  util::ManualClock clock_;
  MemOss store_{clock_};
  std::vector<std::string> present_;
  std::vector<std::string> absent_;
};

TEST_F(OssAllocTest, StateOfAndStatAllocateNothingOnAWarmStore) {
  ASSERT_EQ(store_.FileCount(), static_cast<std::size_t>(kFiles));
  const std::size_t before = Allocations();
  std::size_t online = 0;
  std::size_t stated = 0;
  for (int i = 0; i < kFiles; ++i) {
    online += store_.StateOf(present_[i]) == FileState::kOnline ? 1 : 0;
    online += store_.StateOf(absent_[i]) == FileState::kOnline ? 1 : 0;
    stated += store_.Stat(present_[i]).has_value() ? 1 : 0;
    stated += store_.Stat(absent_[i]).has_value() ? 1 : 0;
  }
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(online, static_cast<std::size_t>(kFiles));
  EXPECT_EQ(stated, static_cast<std::size_t>(kFiles));
}

TEST_F(OssAllocTest, UnlinkThenCreateReusesRecordsAndPathSpace) {
  util::Rng rng(7);
  const auto churn = [&] {
    for (int round = 0; round < 1000; ++round) {
      const std::size_t i = rng.NextBelow(kFiles);
      ASSERT_TRUE(store_.Unlink(present_[i]).ok());
      ASSERT_TRUE(store_.Create(absent_[i]).ok());
      std::swap(present_[i], absent_[i]);
    }
  };
  churn();  // frees records and path space for the rounds below
  const std::size_t before = Allocations();
  churn();
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(store_.FileCount(), static_cast<std::size_t>(kFiles));
}

}  // namespace
}  // namespace scalla::oss
