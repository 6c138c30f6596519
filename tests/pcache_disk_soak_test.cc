// Tier-2 soak: fill and turn over a multi-gigabyte disk tier. The backing
// oss stores per-file metadata only and synthesizes read bytes from a
// pattern, so the test exercises GB-scale occupancy accounting, watermark
// eviction and ghost turnover without gigabytes of RAM (the tiered cache's
// in-memory index is authoritative for sizes, never the backend).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "pcache/tiered_cache.h"
#include "util/clock.h"

namespace scalla::pcache {
namespace {

// A size-only oss backend: remembers each file's length, fabricates the
// bytes on read. Counts operations so the soak can assert the cache drove
// real backend traffic.
class PatternOss final : public oss::Oss {
 public:
  oss::FileState StateOf(const std::string& path) override {
    return sizes_.count(path) ? oss::FileState::kOnline : oss::FileState::kAbsent;
  }

  Result<void> Create(const std::string& path) override {
    if (sizes_.count(path)) {
      return Result<void>::Err(proto::XrdErr::kExists, "exists");
    }
    sizes_[path] = 0;
    ++creates_;
    return Result<void>::Ok();
  }

  Result<void> Write(const std::string& path, std::uint64_t offset,
                     std::string_view data) override {
    const auto it = sizes_.find(path);
    if (it == sizes_.end()) {
      return Result<void>::Err(proto::XrdErr::kNotFound, "not online");
    }
    it->second = std::max(it->second, offset + data.size());
    bytesWritten_ += data.size();
    return Result<void>::Ok();
  }

  Result<std::string> Read(const std::string& path, std::uint64_t offset,
                           std::uint32_t length) override {
    const auto it = sizes_.find(path);
    if (it == sizes_.end()) {
      return Result<std::string>::Err(proto::XrdErr::kNotFound, "not online");
    }
    if (offset >= it->second) return Result<std::string>::Ok(std::string());
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(length, it->second - offset));
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : path) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    std::string out(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<char>('A' + ((h + offset + i) % 23));
    }
    bytesRead_ += n;
    return Result<std::string>::Ok(std::move(out));
  }

  std::optional<oss::StatInfo> Stat(const std::string& path) override {
    const auto it = sizes_.find(path);
    if (it == sizes_.end()) return std::nullopt;
    return oss::StatInfo{it->second, TimePoint{}};
  }

  Result<void> Unlink(const std::string& path) override {
    if (sizes_.erase(path) == 0) {
      return Result<void>::Err(proto::XrdErr::kNotFound, "not found");
    }
    ++unlinks_;
    return Result<void>::Ok();
  }

  std::vector<std::string> List(const std::string& prefix) override {
    std::vector<std::string> out;
    for (const auto& [path, size] : sizes_) {
      if (path.rfind(prefix, 0) == 0) out.push_back(path);
    }
    return out;
  }

  std::optional<std::uint64_t> UsedBytes() override {
    std::uint64_t total = 0;
    for (const auto& [path, size] : sizes_) total += size;
    return total;
  }

  std::size_t FileCount() const { return sizes_.size(); }
  std::uint64_t BytesWritten() const { return bytesWritten_; }
  std::uint64_t BytesRead() const { return bytesRead_; }
  std::uint64_t Unlinks() const { return unlinks_; }

 private:
  std::map<std::string, std::uint64_t> sizes_;
  std::uint64_t creates_ = 0;
  std::uint64_t bytesWritten_ = 0;
  std::uint64_t bytesRead_ = 0;
  std::uint64_t unlinks_ = 0;
};

TEST(PcacheDiskSoakTest, MultiGigabyteDiskTierFillsAndTurnsOver) {
  constexpr std::uint32_t kBlock = 256 * 1024;                  // 256 KiB
  constexpr std::uint64_t kDiskCapacity = 3ull << 30;           // 3 GiB
  constexpr std::uint64_t kTraffic = 7ull << 30;                // > 2x turnover
  constexpr int kInserts = static_cast<int>(kTraffic / kBlock); // 28672 blocks

  TieredCacheConfig cfg;
  cfg.dram.blockSize = kBlock;
  cfg.dram.capacityBytes = 16ull << 20;  // 16 MiB DRAM: everything spills
  cfg.dram.highWatermark = 0.9;
  cfg.dram.lowWatermark = 0.5;
  cfg.diskCapacityBytes = kDiskCapacity;
  cfg.diskHighWatermark = 0.95;
  cfg.diskLowWatermark = 0.85;
  // Wide enough that the hot stream's reuse distance (~1300 interleaved
  // ghost records) fits; the unique stream still churns it constantly.
  cfg.ghostEntries = 8192;

  util::ManualClock clock;
  PatternOss disk;
  TieredBlockCache cache(cfg, &disk, clock);

  const std::uint64_t high = static_cast<std::uint64_t>(
      cfg.diskHighWatermark * static_cast<double>(kDiskCapacity));

  for (int i = 0; i < kInserts; ++i) {
    const std::string path = "/soak/f" + std::to_string(i % 512);
    const auto index = static_cast<std::uint64_t>(i / 512);
    cache.Insert(path, index, std::string(kBlock, 'd'));

    // A recurring hot stream rides along: its second touch proves reuse
    // via the ghost list, earns DRAM, and overflows the 64-slot DRAM tier
    // so the spill path churns at GB scale too.
    if (i % 4 == 0) {
      cache.Insert("/soak/hot", static_cast<std::uint64_t>(i / 4 % 256),
                   std::string(kBlock, 'h'));
    }

    if (i % 4096 == 4095) {
      clock.Advance(std::chrono::seconds(1));
      const auto stats = cache.GetTieredStats();
      // The disk index never overshoots the watermark band, and its
      // byte/block accounting stays exact against the backend's view.
      ASSERT_LE(stats.diskUsedBytes, high) << "at insert " << i;
      ASSERT_EQ(stats.diskUsedBytes, stats.diskBlockCount * kBlock);
      ASSERT_EQ(disk.UsedBytes().value(), stats.diskUsedBytes);
      ASSERT_EQ(disk.FileCount(), stats.diskBlockCount);
      ASSERT_EQ(stats.diskWriteFailures, 0u);
      // A recent insert is still resident and readable through the cache.
      const auto recent = cache.LookupDetailed(path, index);
      ASSERT_TRUE(recent.data.has_value()) << "at insert " << i;
    }
  }

  const auto stats = cache.GetTieredStats();
  // The tier filled (within one eviction burst of the watermark)...
  EXPECT_GT(stats.diskUsedBytes,
            static_cast<std::uint64_t>(0.8 * static_cast<double>(kDiskCapacity)));
  // ...and turned over: far more data flowed through than fits.
  EXPECT_GT(disk.BytesWritten(), 2 * kDiskCapacity);
  EXPECT_GT(stats.diskEvictions, (kTraffic - kDiskCapacity) / kBlock / 2);
  // Backend unlinks cover at least every watermark victim and every
  // promotion's disk-copy erase (DRAM admission of a disk-resident key
  // erases too, so >=, not ==).
  EXPECT_GE(disk.Unlinks(), stats.diskEvictions + stats.promotions);
  EXPECT_GT(stats.spills, 0u);      // DRAM victims demoted, not dropped
  EXPECT_GT(stats.ghostHits, 0u);   // the hot stream proved reuse
  EXPECT_GT(stats.admitsDram, 0u);

  // Purge one file: its disk blocks disappear from cache AND backend.
  const std::string victim = "/soak/f7";
  const auto life = cache.FileStats(victim);
  ASSERT_TRUE(life.has_value());
  const std::uint64_t purged = cache.Purge(victim);
  EXPECT_EQ(purged, life->dramBlocks + life->diskBlocks);
  EXPECT_TRUE(disk.List(victim + "#b").empty());

  // Full drain: both tiers and the backend end empty.
  (void)cache.PurgeAll();
  EXPECT_EQ(cache.UsedBytes(), 0u);
  EXPECT_EQ(disk.FileCount(), 0u);
  EXPECT_EQ(disk.UsedBytes().value(), 0u);
}

}  // namespace
}  // namespace scalla::pcache
