// Wire-format round-trip tests for every message type, decoder hardening,
// and storage-backend (oss) behaviour including MSS staging.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <thread>

#include "oss/local_oss.h"
#include "oss/mem_oss.h"
#include "oss/mss_oss.h"
#include "proto/wire.h"
#include "util/clock.h"
#include "util/rng.h"

namespace scalla {
namespace {

using proto::Decode;
using proto::Encode;
using proto::Message;

template <typename T>
T RoundTrip(const T& in) {
  const auto decoded = Decode(Encode(Message(in)));
  EXPECT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*decoded));
  return std::get<T>(*decoded);
}

TEST(WireTest, CmsMessagesRoundTrip) {
  proto::CmsLogin login;
  login.name = "server07:1094";
  login.exports = {"/store", "/scratch"};
  login.allowWrite = false;
  login.isSupervisor = true;
  const auto login2 = RoundTrip(login);
  EXPECT_EQ(login2.name, login.name);
  EXPECT_EQ(login2.exports, login.exports);
  EXPECT_EQ(login2.allowWrite, false);
  EXPECT_EQ(login2.isSupervisor, true);

  proto::CmsLoginResp resp{true, 42, ""};
  EXPECT_EQ(RoundTrip(resp).slot, 42);

  proto::CmsQuery query{"/store/f", 0xDEADBEEF, 1, true};
  const auto query2 = RoundTrip(query);
  EXPECT_EQ(query2.hash, 0xDEADBEEFu);
  EXPECT_EQ(query2.mode, 1);
  EXPECT_TRUE(query2.refresh);

  proto::CmsHave have{"/store/f", 7, true, false, true};
  const auto have2 = RoundTrip(have);
  EXPECT_TRUE(have2.pending);
  EXPECT_FALSE(have2.allowWrite);
  EXPECT_TRUE(have2.newfile);

  RoundTrip(proto::CmsNoHave{"/store/f", 9});
  RoundTrip(proto::CmsGone{"/store/f"});
  EXPECT_EQ(RoundTrip(proto::CmsLoad{5, 123456789, ""}).freeSpace, 123456789u);
}

TEST(WireTest, XrdMessagesRoundTrip) {
  proto::XrdOpen open;
  open.reqId = 99;
  open.path = "/store/data.root";
  open.mode = 1;
  open.create = true;
  open.refresh = true;
  open.avoidNode = 17;
  const auto open2 = RoundTrip(open);
  EXPECT_EQ(open2.reqId, 99u);
  EXPECT_EQ(open2.avoidNode, 17u);

  proto::XrdOpenResp openResp;
  openResp.reqId = 99;
  openResp.status = proto::XrdStatus::kRedirect;
  openResp.err = proto::XrdErr::kStale;
  openResp.redirectNode = 3;
  openResp.waitNs = -1;
  openResp.fileHandle = 0xFFFFFFFFFFFFFFFFull;
  openResp.message = "go there";
  const auto openResp2 = RoundTrip(openResp);
  EXPECT_EQ(openResp2.status, proto::XrdStatus::kRedirect);
  EXPECT_EQ(openResp2.err, proto::XrdErr::kStale);
  EXPECT_EQ(openResp2.fileHandle, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(openResp2.waitNs, -1);

  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  proto::XrdReadResp readResp{5, proto::XrdErr::kNone, binary};
  EXPECT_EQ(RoundTrip(readResp).data, binary);

  RoundTrip(proto::XrdRead{1, 2, 3, 4});
  RoundTrip(proto::XrdWrite{1, 2, 3, "payload"});
  RoundTrip(proto::XrdWriteResp{1, proto::XrdErr::kNoSpace, 7});
  RoundTrip(proto::XrdClose{1, 2});
  RoundTrip(proto::XrdCloseResp{1, proto::XrdErr::kInvalid});
  RoundTrip(proto::XrdStat{1, "/p"});
  RoundTrip(proto::XrdStatResp{1, proto::XrdStatus::kWait, proto::XrdErr::kNone, 0, 55, 9});
  RoundTrip(proto::XrdUnlink{1, "/p"});
  RoundTrip(proto::XrdUnlinkResp{1, proto::XrdStatus::kOk, proto::XrdErr::kNone, 0, 0});
  proto::XrdPrepare prep{8, {"/a", "/b", "/c"}, 0};
  EXPECT_EQ(RoundTrip(prep).paths.size(), 3u);
  RoundTrip(proto::XrdPrepareResp{8, proto::XrdErr::kNone});
  RoundTrip(proto::CnsList{4, "/store"});
  proto::CnsListResp listResp{4, proto::XrdErr::kNone, {"/store/a", "/store/b"}};
  EXPECT_EQ(RoundTrip(listResp).names.size(), 2u);

  proto::XrdReadV readv{3, 77, {{0, 16}, {1 << 20, 4096}, {42, 0}}};
  const auto readv2 = RoundTrip(readv);
  ASSERT_EQ(readv2.segments.size(), 3u);
  EXPECT_EQ(readv2.segments[1].offset, 1u << 20);
  EXPECT_EQ(readv2.segments[1].length, 4096u);
  proto::XrdReadVResp readvResp{3, proto::XrdErr::kNone, {"aa", "", "b"}};
  EXPECT_EQ(RoundTrip(readvResp).chunks.size(), 3u);

  RoundTrip(proto::XrdChecksum{5, "/store/f"});
  proto::XrdChecksumResp ckResp{5, proto::XrdStatus::kOk, proto::XrdErr::kNone, 0, 0,
                                0xDEADBEEF};
  EXPECT_EQ(RoundTrip(ckResp).crc32, 0xDEADBEEFu);
}

TEST(WireTest, PcacheAdminRoundTrip) {
  proto::PcacheAdmin admin{11, proto::PcacheAdminOp::kPurgePath, "/store/old"};
  const auto admin2 = RoundTrip(admin);
  EXPECT_EQ(admin2.reqId, 11u);
  EXPECT_EQ(admin2.op, proto::PcacheAdminOp::kPurgePath);
  EXPECT_EQ(admin2.path, "/store/old");

  proto::PcacheAdminResp resp{11, proto::XrdErr::kNone, 7, 1 << 20, 16};
  const auto resp2 = RoundTrip(resp);
  EXPECT_EQ(resp2.blocksPurged, 7u);
  EXPECT_EQ(resp2.usedBytes, 1u << 20);
  EXPECT_EQ(resp2.blockCount, 16u);
  EXPECT_EQ(resp2.err, proto::XrdErr::kNone);
}

TEST(WireTest, DecodeRejectsMalformedInput) {
  EXPECT_FALSE(Decode("").has_value());
  EXPECT_FALSE(Decode(std::string(1, '\xFF')).has_value());  // unknown type

  // Truncations of a valid frame must never decode (nor crash).
  proto::XrdOpen open;
  open.path = "/store/x";
  const std::string full = Encode(Message(open));
  for (std::size_t len = 1; len < full.size(); ++len) {
    EXPECT_FALSE(Decode(full.substr(0, len)).has_value()) << len;
  }
}

TEST(WireTest, DecodeRejectsOversizedStringClaims) {
  // Type 0 (CmsLogin) with a name length claiming 4GB.
  std::string evil;
  evil.push_back('\0');
  for (int i = 0; i < 4; ++i) evil.push_back('\xFF');
  EXPECT_FALSE(Decode(evil).has_value());
}

TEST(WireTest, FuzzedBytesNeverCrash) {
  util::Rng rng(0xF022);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes(rng.NextBelow(120), '\0');
    for (auto& b : bytes) b = static_cast<char>(rng.NextBelow(256));
    (void)Decode(bytes);  // must not crash or hang; value irrelevant
  }
}

// ------------------------------------------------------------------ oss

TEST(MemOssTest, CreateWriteReadStatUnlink) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  EXPECT_EQ(fs.StateOf("/f"), oss::FileState::kAbsent);
  EXPECT_TRUE(fs.Create("/f"));
  EXPECT_EQ(fs.Create("/f").code(), proto::XrdErr::kExists);
  EXPECT_TRUE(fs.Write("/f", 0, "hello "));
  EXPECT_TRUE(fs.Write("/f", 6, "world"));

  Result<std::string> data = fs.Read("/f", 0, 100);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), "hello world");
  data = fs.Read("/f", 6, 5);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), "world");
  data = fs.Read("/f", 100, 5);
  ASSERT_TRUE(data);
  EXPECT_TRUE(data.value().empty());  // past EOF

  const auto info = fs.Stat("/f");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 11u);

  EXPECT_TRUE(fs.Unlink("/f"));
  EXPECT_EQ(fs.Unlink("/f").code(), proto::XrdErr::kNotFound);
  EXPECT_EQ(fs.Read("/f", 0, 1).code(), proto::XrdErr::kNotFound);
}

TEST(MemOssTest, SparseWriteZeroFills) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  (void)fs.Create("/f");
  (void)fs.Write("/f", 4, "x");
  const Result<std::string> data = fs.Read("/f", 0, 5);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), std::string("\0\0\0\0x", 5));
}

// A write that straddles EOF overwrites the bytes under it and appends
// the rest; a later write past EOF zero-fills only the gap it leaves.
TEST(MemOssTest, WriteOverlappingEofOverwritesThenAppends) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  (void)fs.Create("/f");
  ASSERT_TRUE(fs.Write("/f", 0, "abcdef").ok());
  ASSERT_TRUE(fs.Write("/f", 4, "XYZW").ok());  // two bytes over, two past EOF
  EXPECT_EQ(fs.Read("/f", 0, 100).value(), "abcdXYZW");
  ASSERT_TRUE(fs.Write("/f", 1, "q").ok());     // inside: the size holds
  ASSERT_TRUE(fs.Write("/f", 8, "!").ok());     // exactly at EOF
  EXPECT_EQ(fs.Read("/f", 0, 100).value(), "aqcdXYZW!");
  ASSERT_TRUE(fs.Write("/f", 11, "e").ok());    // two-byte gap
  EXPECT_EQ(fs.Read("/f", 0, 100).value(), std::string("aqcdXYZW!\0\0e", 12));
  EXPECT_EQ(fs.Stat("/f")->size, 12u);
  EXPECT_EQ(fs.TotalBytes(), 12u);
}

TEST(MemOssTest, ListByPrefix) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  fs.Put("/a/1", "");
  fs.Put("/a/2", "");
  fs.Put("/b/1", "");
  EXPECT_EQ(fs.List("/a/").size(), 2u);
  EXPECT_EQ(fs.List("/").size(), 3u);
  EXPECT_TRUE(fs.List("/c").empty());
}

// At capacity exactly, Create refuses; a Write may fill the store to the
// byte but not past it, an overwrite grows nothing, and an unlink gives
// its bytes back.
TEST(MemOssTest, CapacityRefusesAtTheBoundary) {
  util::ManualClock clock;
  oss::MemOss fs(clock, 10);
  ASSERT_TRUE(fs.Create("/a").ok());
  EXPECT_EQ(fs.Write("/a", 0, std::string(11, 'x')).code(), proto::XrdErr::kNoSpace);
  ASSERT_TRUE(fs.Write("/a", 0, std::string(10, 'x')).ok());
  EXPECT_EQ(fs.Create("/b").code(), proto::XrdErr::kNoSpace);
  EXPECT_TRUE(fs.Write("/a", 3, "yyy").ok());
  EXPECT_EQ(fs.Write("/a", 8, "zzz").code(), proto::XrdErr::kNoSpace);
  EXPECT_EQ(fs.UsedBytes(), std::optional<std::uint64_t>(10));
  ASSERT_TRUE(fs.Unlink("/a").ok());
  EXPECT_TRUE(fs.Create("/b").ok());
  EXPECT_EQ(fs.TotalBytes(), 0u);
}

// A path longer than a key chunk gets a chunk of its own: it is found,
// listed, unlinked and placed again beside short paths, which keep their
// own bytes throughout.
TEST(MemOssTest, PathLongerThanAKeyChunk) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  const std::string huge = "/store/" + std::string(40000, 'h');
  const std::string huger = "/store/" + std::string(70000, 'k');
  fs.Put("/store/a", "1");
  fs.Put(huge, "22");
  fs.Put("/store/b", "333");
  fs.Put(huger, "4444");
  EXPECT_EQ(fs.StateOf(huge), oss::FileState::kOnline);
  EXPECT_EQ(fs.Read(huger, 0, 10).value(), "4444");
  EXPECT_EQ(fs.List("/store/"),
            (std::vector<std::string>{"/store/a", "/store/b", huge, huger}));
  EXPECT_TRUE(fs.Unlink(huge).ok());
  EXPECT_EQ(fs.StateOf(huge), oss::FileState::kAbsent);
  EXPECT_EQ(fs.Read("/store/b", 0, 10).value(), "333");
  fs.Put(huge, "5");
  EXPECT_EQ(fs.Read(huge, 0, 10).value(), "5");
  EXPECT_EQ(fs.FileCount(), 4u);
  EXPECT_EQ(fs.TotalBytes(), 9u);
}

// MemOss's documented behaviour written the plain way: a sorted map, and
// capacity checks that sum every file's size by scanning.
class ReferenceOss {
 public:
  explicit ReferenceOss(std::uint64_t capacity) : capacity_(capacity) {}

  std::uint64_t TotalBytes() const {
    std::uint64_t total = 0;
    for (const auto& [_, f] : files_) total += f.data.size();
    return total;
  }
  std::size_t FileCount() const { return files_.size(); }
  std::uint64_t SizeOf(const std::string& path) const {
    const auto it = files_.find(path);
    return it == files_.end() ? 0 : it->second.data.size();
  }

  void Put(const std::string& path, std::string data, TimePoint now) {
    files_[path] = File{std::move(data), now};
  }
  proto::XrdErr Create(const std::string& path, TimePoint now) {
    if (files_.count(path) != 0) return proto::XrdErr::kExists;
    if (capacity_ != 0 && TotalBytes() >= capacity_) return proto::XrdErr::kNoSpace;
    files_[path] = File{std::string(), now};
    return proto::XrdErr::kNone;
  }
  proto::XrdErr Write(const std::string& path, std::uint64_t offset, const std::string& data,
                      TimePoint now) {
    const auto it = files_.find(path);
    if (it == files_.end()) return proto::XrdErr::kNotFound;
    std::string& bytes = it->second.data;
    const std::uint64_t end = offset + data.size();
    if (end > bytes.size()) {
      if (capacity_ != 0 && TotalBytes() + (end - bytes.size()) > capacity_) {
        return proto::XrdErr::kNoSpace;
      }
      bytes.resize(end, '\0');
    }
    std::copy(data.begin(), data.end(), bytes.begin() + static_cast<std::ptrdiff_t>(offset));
    it->second.mtime = now;
    return proto::XrdErr::kNone;
  }
  std::optional<std::string> Read(const std::string& path, std::uint64_t offset,
                                  std::uint32_t length) const {
    const auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    const std::string& bytes = it->second.data;
    return offset >= bytes.size() ? std::string() : bytes.substr(offset, length);
  }
  std::optional<oss::StatInfo> Stat(const std::string& path) const {
    const auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return oss::StatInfo{it->second.data.size(), it->second.mtime};
  }
  bool Unlink(const std::string& path) { return files_.erase(path) != 0; }
  std::vector<std::string> List(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& [path, _] : files_) {
      if (path.starts_with(prefix)) out.push_back(path);
    }
    return out;
  }

 private:
  struct File {
    std::string data;
    TimePoint mtime{};
  };
  std::uint64_t capacity_;
  std::map<std::string, File> files_;
};

// Equal-length HEP paths, whose freed space fits the next one exactly,
// beside paths of several hundred bytes, five bytes apart in length, so
// neighbouring sizes of path space are freed and reused side by side.
std::vector<std::string> DifferentialPaths() {
  std::vector<std::string> paths;
  for (int i = 0; i < 150; ++i) paths.push_back(util::MakeFilePath(i % 7, i));
  for (int i = 0; i < 30; ++i) {
    paths.push_back("/store/long/" + std::string(200 + 5 * i, static_cast<char>('a' + i % 26)) +
                    "/f" + std::to_string(i));
  }
  return paths;
}

// Drives a MemOss and the reference with one seeded stream of operations
// and compares every answer, the counts, the byte totals and the listing
// after each. Unlinks come in waves, so the store fills and drains: its
// slot array grows, deletes shift probe runs back, and freed records and
// key space are reused. Returns how many operations the cap refused.
int RunDifferential(std::uint64_t seed, std::uint64_t capacity) {
  util::ManualClock clock;
  oss::MemOss fs(clock, capacity);
  ReferenceOss ref(capacity);
  util::Rng rng(seed);
  const std::vector<std::string> paths = DifferentialPaths();
  const std::vector<std::string> prefixes = {"", "/", "/store/data/", "/store/long/",
                                             util::MakeFilePath(3, 3), "/nope"};
  const auto bytes = [&rng](std::size_t n) {
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(rng.NextBelow(256));
    return out;
  };
  int refused = 0;
  for (int step = 0; step < 4000; ++step) {
    clock.Advance(std::chrono::microseconds(1 + rng.NextBelow(100)));
    const std::string& path = paths[rng.NextBelow(paths.size())];
    const std::uint64_t unlinkWeight = (step / 700) % 2 == 0 ? 6 : 45;
    const std::uint64_t op = rng.NextBelow(55 + unlinkWeight);
    if (op < 10) {  // Put
      std::string data = bytes(rng.NextBelow(41));
      ref.Put(path, data, clock.Now());
      fs.Put(path, std::move(data));
    } else if (op < 22) {  // Create
      const proto::XrdErr want = ref.Create(path, clock.Now());
      if (want == proto::XrdErr::kNoSpace) ++refused;
      EXPECT_EQ(fs.Create(path).code(), want) << "step " << step;
    } else if (op < 36) {  // Write inside, straddling or past EOF
      const std::uint64_t size = ref.SizeOf(path);
      std::uint64_t offset = 0;
      std::size_t length = 1 + rng.NextBelow(24);
      switch (rng.NextBelow(3)) {
        case 0:
          offset = size == 0 ? 0 : rng.NextBelow(size);
          length = std::max<std::size_t>(1, std::min<std::uint64_t>(length, size - offset));
          break;
        case 1:
          offset = size - std::min<std::uint64_t>(size, 1 + rng.NextBelow(4));
          length += static_cast<std::size_t>(size - offset);
          break;
        default:
          offset = size + 1 + rng.NextBelow(16);
          break;
      }
      const std::string data = bytes(length);
      const proto::XrdErr want = ref.Write(path, offset, data, clock.Now());
      if (want == proto::XrdErr::kNoSpace) ++refused;
      EXPECT_EQ(fs.Write(path, offset, data).code(), want) << "step " << step;
    } else if (op < 44) {  // Read
      const std::uint64_t offset = rng.NextBelow(ref.SizeOf(path) + 8);
      const auto length = static_cast<std::uint32_t>(rng.NextBelow(48));
      const auto want = ref.Read(path, offset, length);
      const Result<std::string> got = fs.Read(path, offset, length);
      EXPECT_EQ(got.ok(), want.has_value()) << "step " << step;
      if (got.ok() && want.has_value()) {
        EXPECT_EQ(got.value(), *want) << "step " << step;
      }
    } else if (op < 50) {  // Stat and StateOf
      const auto want = ref.Stat(path);
      const auto got = fs.Stat(path);
      EXPECT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got && want) {
        EXPECT_EQ(got->size, want->size) << "step " << step;
        EXPECT_EQ(got->mtime, want->mtime) << "step " << step;
      }
      EXPECT_EQ(fs.StateOf(path),
                want ? oss::FileState::kOnline : oss::FileState::kAbsent) << "step " << step;
    } else if (op < 55) {  // List
      const std::string& prefix = prefixes[rng.NextBelow(prefixes.size())];
      EXPECT_EQ(fs.List(prefix), ref.List(prefix)) << "step " << step;
    } else {  // Unlink
      const bool want = ref.Unlink(path);
      EXPECT_EQ(fs.Unlink(path).code(),
                want ? proto::XrdErr::kNone : proto::XrdErr::kNotFound) << "step " << step;
    }
    EXPECT_EQ(fs.FileCount(), ref.FileCount()) << "step " << step;
    EXPECT_EQ(fs.TotalBytes(), ref.TotalBytes()) << "step " << step;
    EXPECT_EQ(fs.UsedBytes(), std::optional<std::uint64_t>(ref.TotalBytes())) << "step " << step;
    EXPECT_EQ(fs.List(""), ref.List("")) << "step " << step;
    if (::testing::Test::HasFailure()) break;  // the first divergence is the useful one
  }
  return refused;
}

TEST(MemOssDifferentialTest, MatchesASortedMapUncapped) {
  for (const std::uint64_t seed : {1, 2}) {
    SCOPED_TRACE(seed);
    EXPECT_EQ(RunDifferential(seed, 0), 0);
  }
}

// A capped store refuses exactly where a reference that sums every size
// by scanning refuses.
TEST(MemOssDifferentialTest, CappedStoreRefusesWhereAScanWould) {
  for (const std::uint64_t seed : {4, 5}) {
    SCOPED_TRACE(seed);
    EXPECT_GT(RunDifferential(seed, 1500), 0);
  }
}

// Two writers and two readers share one store while its slot array grows
// from empty to thousands of files. Run under ThreadSanitizer (verify.sh),
// this checks that the index is touched only under the store's lock.
TEST(MemOssConcurrencyTest, WritersAndReadersAcrossSlotGrowth) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  constexpr int kWriters = 2;
  constexpr int kFiles = 2000;
  const auto pathOf = [](int writer, int i) {
    return "/w" + std::to_string(writer) + "/file" + std::to_string(i);
  };
  std::atomic<int> writing{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const char fill = static_cast<char>('a' + w);
      for (int i = 0; i < kFiles; ++i) {
        fs.Put(pathOf(w, i), std::string(8, fill));
        const std::string made = pathOf(w, i) + ".new";
        EXPECT_TRUE(fs.Create(made).ok());
        EXPECT_TRUE(fs.Write(made, 0, std::string(16, fill)).ok());
        if (i % 2 == 0) {
          EXPECT_TRUE(fs.Unlink(made).ok());
        }
      }
      writing.fetch_sub(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      for (int iter = 0; writing.load() > 0; ++iter) {
        const int w = (iter + r) % kWriters;
        const std::string path = pathOf(w, iter % kFiles);
        const oss::FileState state = fs.StateOf(path);
        EXPECT_TRUE(state == oss::FileState::kOnline || state == oss::FileState::kAbsent);
        if (const auto info = fs.Stat(path)) {
          EXPECT_EQ(info->size, 8u);
        }
        const Result<std::string> data = fs.Read(path, 0, 64);
        if (data.ok()) {
          EXPECT_EQ(data.value(), std::string(8, static_cast<char>('a' + w)));
        }
        if (iter % 64 == 0) {
          const std::vector<std::string> listed = fs.List("/w" + std::to_string(w) + "/");
          EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fs.FileCount(), std::size_t{kWriters} * (kFiles + kFiles / 2));
  EXPECT_EQ(fs.TotalBytes(), std::uint64_t{kWriters} * (kFiles * 8 + kFiles / 2 * 16));
  EXPECT_EQ(fs.List("/w1/").size(), std::size_t{kFiles + kFiles / 2});
}

TEST(MssOssTest, StagingLifecycle) {
  util::ManualClock clock;
  oss::MssConfig cfg;
  cfg.stageDelay = std::chrono::seconds(30);
  oss::MssOss fs(clock, cfg);

  fs.PutInMss("/tape/f", 1024);
  EXPECT_EQ(fs.StateOf("/tape/f"), oss::FileState::kInMss);

  const auto remaining = fs.BeginStage("/tape/f");
  ASSERT_TRUE(remaining.has_value());
  EXPECT_EQ(*remaining, Duration(std::chrono::seconds(30)));
  EXPECT_EQ(fs.StateOf("/tape/f"), oss::FileState::kStaging);
  EXPECT_EQ(fs.StagingCount(), 1u);

  clock.Advance(std::chrono::seconds(10));
  const auto poll = fs.BeginStage("/tape/f");
  ASSERT_TRUE(poll.has_value());
  EXPECT_EQ(*poll, Duration(std::chrono::seconds(20)));

  clock.Advance(std::chrono::seconds(21));
  EXPECT_EQ(fs.StateOf("/tape/f"), oss::FileState::kOnline);
  const auto info = fs.Stat("/tape/f");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 1024u);
  EXPECT_EQ(fs.StagingCount(), 0u);
}

TEST(MssOssTest, StageOfUnknownFileFails) {
  util::ManualClock clock;
  oss::MssOss fs(clock, {});
  EXPECT_FALSE(fs.BeginStage("/nope").has_value());
}

// Staged files settle into the index beside ordinary ones; one unlinked
// after its stage is back on tape only, and a second stage brings it back
// into a reused record.
TEST(MssOssTest, StagedFilesSettleIntoTheIndex) {
  util::ManualClock clock;
  oss::MssConfig cfg;
  cfg.stageDelay = std::chrono::seconds(5);
  oss::MssOss fs(clock, cfg);
  fs.Put("/disk/f", "abc");
  for (int i = 0; i < 40; ++i) {
    const std::string path = "/tape/f" + std::to_string(i);
    fs.PutInMss(path, 10 + i);
    ASSERT_TRUE(fs.BeginStage(path).has_value());
  }
  EXPECT_EQ(fs.FileCount(), 1u);
  clock.Advance(std::chrono::seconds(6));
  EXPECT_EQ(fs.StagingCount(), 0u);
  EXPECT_EQ(fs.FileCount(), 41u);
  EXPECT_EQ(fs.TotalBytes(), 3u + 40 * 10 + 40 * 39 / 2);
  EXPECT_EQ(fs.Read("/tape/f7", 0, 100).value(), std::string(17, 'M'));
  EXPECT_EQ(fs.List("/tape/").size(), 40u);

  ASSERT_TRUE(fs.Unlink("/tape/f7").ok());
  EXPECT_EQ(fs.StateOf("/tape/f7"), oss::FileState::kInMss);
  EXPECT_EQ(fs.BeginStage("/tape/f7"), Duration(std::chrono::seconds(5)));
  clock.Advance(std::chrono::seconds(5));
  EXPECT_EQ(fs.StateOf("/tape/f7"), oss::FileState::kOnline);
  EXPECT_EQ(fs.Stat("/tape/f7")->size, 17u);
  EXPECT_EQ(fs.Stat("/tape/f7")->mtime, clock.Now());
  EXPECT_EQ(fs.BeginStage("/tape/f7"), Duration::zero());
  EXPECT_EQ(fs.FileCount(), 41u);
}

TEST(MssOssTest, OnlineFileStageIsInstant) {
  util::ManualClock clock;
  oss::MssOss fs(clock, {});
  fs.Put("/f", "data");
  EXPECT_EQ(fs.BeginStage("/f"), Duration::zero());
}

class LocalOssTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("scalla_oss_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::filesystem::path root_;
};

TEST_F(LocalOssTest, FullLifecycleOnDisk) {
  oss::LocalOss fs(root_);
  EXPECT_TRUE(fs.Create("/store/run1/f.root"));
  EXPECT_EQ(fs.StateOf("/store/run1/f.root"), oss::FileState::kOnline);
  EXPECT_TRUE(fs.Write("/store/run1/f.root", 0, "payload"));
  const Result<std::string> data = fs.Read("/store/run1/f.root", 0, 64);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), "payload");
  EXPECT_EQ(fs.Stat("/store/run1/f.root")->size, 7u);
  const auto listed = fs.List("/store");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0], "/store/run1/f.root");
  EXPECT_TRUE(fs.Unlink("/store/run1/f.root"));
  EXPECT_EQ(fs.StateOf("/store/run1/f.root"), oss::FileState::kAbsent);
}

TEST_F(LocalOssTest, RejectsPathEscape) {
  oss::LocalOss fs(root_);
  EXPECT_EQ(fs.Create("/../escape").code(), proto::XrdErr::kInvalid);
  EXPECT_EQ(fs.Write("/a/../../escape", 0, "x").code(), proto::XrdErr::kInvalid);
}

}  // namespace
}  // namespace scalla
