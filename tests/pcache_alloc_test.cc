// Copy budget of the proxy's read path. This binary replaces global
// operator new with a version that counts allocations of at least one
// cache block: each is a buffer that a block's bytes are copied into (an
// oss read, a cache insert, a disk-tier write, a reply being assembled).
// Counted process-wide over a simulated cluster with a proxy and a disk
// tier, one read of one whole block costs:
//   DRAM hit           1  the copy out of the DRAM tier;
//   disk hit           2  the disk-tier read and the copy kept for the
//                         promotion to DRAM;
//   first-touch fill   3  the leaf's oss read, the cache insert and the
//                         disk-tier write.
// The block travels from the cache (or the origin's reply) to the client
// without another copy: a range that is one whole block is answered with
// that block, and a fetched block reaches the read waiting on it as the
// fetched buffer itself. The simulated fabric moves messages without
// encoding them; over TCP the bulk field leaves as its own iovec, so the
// count there is the same.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "sim/cluster.h"

namespace {
constexpr std::size_t kBlock = 64 * 1024;
std::atomic<std::size_t> g_blockAllocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (size >= kBlock) g_blockAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scalla {
namespace {

class PcacheAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ClusterSpec spec;
    spec.servers = 1;
    spec.withProxy = true;
    spec.proxyCache.blockSize = kBlock;
    spec.proxyCache.capacityBytes = 64 * kBlock;  // no eviction, so no spill
    spec.proxyDiskCapacity = 64 * kBlock;
    spec.proxyReadAhead = 0;                      // one fetch per miss
    cluster_ = std::make_unique<sim::SimCluster>(spec);
    cluster_->Start();
    content_.resize(4 * kBlock);
    for (std::size_t i = 0; i < content_.size(); ++i) {
      content_[i] = static_cast<char>(i * 131 + i / kBlock);
    }
    cluster_->PlaceFile(0, "/store/f", content_);
    client_ = &cluster_->NewProxyClient();
    const auto open = cluster_->OpenAndWait(*client_, "/store/f", cms::AccessMode::kRead,
                                            /*create=*/false);
    ASSERT_EQ(open.err, proto::XrdErr::kNone);
    file_ = open.file;
  }

  // Reads block `index` through the proxy and settles the cluster, so
  // tier moves the read scheduled (a promotion) are counted with it.
  // Returns the block-sized allocations made meanwhile.
  std::size_t ReadBlock(std::uint64_t index) {
    bool done = false;
    proto::XrdErr err = proto::XrdErr::kIo;
    std::string data;
    const std::size_t before = g_blockAllocations.load(std::memory_order_relaxed);
    client_->Read(file_, index * kBlock, kBlock, [&](proto::XrdErr e, std::string d) {
      err = e;
      data = std::move(d);
      done = true;
    });
    sim::EventEngine& engine = cluster_->engine();
    EXPECT_TRUE(engine.RunUntilPredicate([&] { return done; },
                                         engine.Now() + std::chrono::seconds(30)));
    cluster_->RunFor(std::chrono::milliseconds(100));
    const std::size_t after = g_blockAllocations.load(std::memory_order_relaxed);
    EXPECT_EQ(err, proto::XrdErr::kNone);
    EXPECT_TRUE(data == content_.substr(index * kBlock, kBlock)) << "block " << index;
    return after - before;
  }

  pcache::TieredCacheStats Stats() { return cluster_->proxy()->cache().GetTieredStats(); }

  std::unique_ptr<sim::SimCluster> cluster_;
  client::ScallaClient* client_ = nullptr;
  client::FileRef file_;
  std::string content_;
};

TEST_F(PcacheAllocTest, FirstTouchOriginFillCopiesThreeTimes) {
  EXPECT_EQ(ReadBlock(1), 3u);
  const auto stats = Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.admitsDisk, 1u);  // a first touch lands on the disk tier
}

TEST_F(PcacheAllocTest, DiskHitCopiesTwice) {
  (void)ReadBlock(1);  // first touch: to the disk tier
  EXPECT_EQ(ReadBlock(1), 2u);
  const auto stats = Stats();
  EXPECT_EQ(stats.diskHits, 1u);
  EXPECT_EQ(stats.promotions, 1u);
}

TEST_F(PcacheAllocTest, DramHitCopiesOnce) {
  (void)ReadBlock(1);  // first touch: to the disk tier
  (void)ReadBlock(1);  // disk hit: promoted to DRAM
  EXPECT_EQ(ReadBlock(1), 1u);
  EXPECT_EQ(Stats().dramHits, 1u);
}

}  // namespace
}  // namespace scalla
