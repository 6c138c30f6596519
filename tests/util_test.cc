// Unit tests for the util substrate: CRC32, Fibonacci sizing, ServerSet,
// clocks, RNG/Zipf, config parsing, latency formatting and histograms,
// error names.
#include <gtest/gtest.h>

#include <set>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/config.h"
#include "util/crc32.h"
#include "util/fibonacci.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/server_set.h"
#include "util/stats.h"

namespace scalla {
namespace {

// ---------------------------------------------------------------- CRC32

TEST(Crc32Test, KnownVectors) {
  // Standard zlib test vectors.
  EXPECT_EQ(util::Crc32(""), 0x00000000u);
  EXPECT_EQ(util::Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(util::Crc32("abc"), 0x352441C2u);
  EXPECT_EQ(util::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string s = "/store/data/run000123/file00042.root";
  for (std::size_t split = 0; split <= s.size(); ++split) {
    const std::uint32_t partial = util::Crc32(s.substr(0, split));
    EXPECT_EQ(util::Crc32(s.substr(split), partial), util::Crc32(s)) << split;
  }
}

TEST(Crc32Test, LongBufferCrossesSliceBoundaries) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s.push_back(static_cast<char>(i * 31));
  // Byte-at-a-time reference.
  std::uint32_t ref = ~0u;
  for (const char c : s) {
    ref ^= static_cast<unsigned char>(c);
    for (int k = 0; k < 8; ++k) ref = (ref >> 1) ^ ((ref & 1u) ? 0xEDB88320u : 0u);
  }
  EXPECT_EQ(util::Crc32(s), ~ref);
}

TEST(Crc32Test, DistinctPathsDisperse) {
  std::set<std::uint32_t> hashes;
  for (int i = 0; i < 10000; ++i) {
    hashes.insert(util::Crc32(util::MakeFilePath(i / 100, i % 100)));
  }
  EXPECT_EQ(hashes.size(), 10000u);  // no collisions at this scale
}

// ------------------------------------------------------------ Fibonacci

TEST(FibonacciTest, AtLeast) {
  EXPECT_EQ(util::FibonacciAtLeast(1), 1u);
  EXPECT_EQ(util::FibonacciAtLeast(2), 2u);
  EXPECT_EQ(util::FibonacciAtLeast(3), 3u);
  EXPECT_EQ(util::FibonacciAtLeast(4), 5u);
  EXPECT_EQ(util::FibonacciAtLeast(89), 89u);
  EXPECT_EQ(util::FibonacciAtLeast(90), 144u);
}

TEST(FibonacciTest, Next) {
  EXPECT_EQ(util::NextFibonacci(1), 2u);
  EXPECT_EQ(util::NextFibonacci(89), 144u);
  EXPECT_EQ(util::NextFibonacci(144), 233u);
}

TEST(FibonacciTest, IsFibonacci) {
  EXPECT_TRUE(util::IsFibonacci(1));
  EXPECT_TRUE(util::IsFibonacci(89));
  EXPECT_TRUE(util::IsFibonacci(832040));
  EXPECT_FALSE(util::IsFibonacci(4));
  EXPECT_FALSE(util::IsFibonacci(100));
}

TEST(FibonacciTest, SequencePropertyHolds) {
  // Each table value is the sum of the previous two.
  std::uint64_t a = 1, b = 2;
  for (int i = 0; i < 80; ++i) {
    EXPECT_EQ(util::NextFibonacci(a), b);
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
}

// ------------------------------------------------------------ ServerSet

TEST(ServerSetTest, BasicOps) {
  ServerSet s;
  EXPECT_TRUE(s.empty());
  s.set(0);
  s.set(63);
  s.set(17);
  EXPECT_EQ(s.count(), 3);
  EXPECT_TRUE(s.test(17));
  EXPECT_FALSE(s.test(18));
  s.reset(17);
  EXPECT_FALSE(s.test(17));
  EXPECT_EQ(s.count(), 2);
}

TEST(ServerSetTest, Iteration) {
  ServerSet s;
  for (const int slot : {3, 9, 41, 63}) s.set(slot);
  std::vector<int> seen;
  for (ServerSlot slot = s.first(); slot >= 0; slot = s.next(slot)) seen.push_back(slot);
  EXPECT_EQ(seen, (std::vector<int>{3, 9, 41, 63}));
}

TEST(ServerSetTest, IterationEdgeCases) {
  EXPECT_EQ(ServerSet::None().first(), -1);
  EXPECT_EQ(ServerSet::Single(63).first(), 63);
  EXPECT_EQ(ServerSet::Single(63).next(63), -1);
  EXPECT_EQ(ServerSet::Single(0).next(0), -1);
  EXPECT_EQ(ServerSet::All().count(), 64);
}

TEST(SersetTest, SetAlgebra) {
  const ServerSet a = ServerSet::FirstN(8);
  const ServerSet b(0xF0ull);
  EXPECT_EQ((a & b).bits(), 0xF0ull);
  EXPECT_EQ((a | b).bits(), 0xFFull);
  EXPECT_EQ(a.Without(b).bits(), 0x0Full);
  EXPECT_TRUE(a.Contains(b));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(b.Contains(a));
}

TEST(ServerSetTest, FirstN) {
  EXPECT_EQ(ServerSet::FirstN(0).count(), 0);
  EXPECT_EQ(ServerSet::FirstN(64).count(), 64);
  EXPECT_EQ(ServerSet::FirstN(5).bits(), 0x1Full);
}

TEST(ServerSetTest, ToString) {
  ServerSet s;
  s.set(1);
  s.set(5);
  EXPECT_EQ(s.ToString(), "{1,5}");
  EXPECT_EQ(ServerSet::None().ToString(), "{}");
}

// ---------------------------------------------------------------- Clock

TEST(ClockTest, ManualClockAdvances) {
  util::ManualClock clock;
  const TimePoint t0 = clock.Now();
  clock.Advance(std::chrono::seconds(5));
  EXPECT_EQ(clock.Now() - t0, std::chrono::seconds(5));
}

TEST(ClockTest, SystemClockMonotonic) {
  util::SystemClock clock;
  const TimePoint a = clock.Now();
  const TimePoint b = clock.Now();
  EXPECT_LE(a, b);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, Deterministic) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const auto v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformityRough) {
  util::Rng rng(123);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.NextBelow(10)];
  for (const int b : buckets) {
    EXPECT_GT(b, n / 10 - n / 50);
    EXPECT_LT(b, n / 10 + n / 50);
  }
}

TEST(ZipfTest, SkewOrdersRanks) {
  util::Rng rng(9);
  const util::ZipfSampler zipf(100, 1.0);
  int counts[100] = {};
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  util::Rng rng(11);
  const util::ZipfSampler zipf(10, 0.0);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (const int c : counts) {
    EXPECT_GT(c, n / 10 - n / 40);
    EXPECT_LT(c, n / 10 + n / 40);
  }
}

// --------------------------------------------------------------- Config

TEST(ConfigTest, ParsesDirectives) {
  const auto cfg = util::Config::Parse(R"(
# a comment
cms.lifetime 8h
cms.delay  5s
oss.path /data    # trailing comment
count 42
ratio 0.8
flag true
)");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->GetDuration("cms.lifetime"), Duration(std::chrono::hours(8)));
  EXPECT_EQ(cfg->GetDuration("cms.delay"), Duration(std::chrono::seconds(5)));
  EXPECT_EQ(cfg->GetString("oss.path"), "/data");
  EXPECT_EQ(cfg->GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(cfg->GetDouble("ratio").value(), 0.8);
  EXPECT_EQ(cfg->GetBool("flag"), true);
}

TEST(ConfigTest, EqualsSyntaxAndDefaults) {
  const auto cfg = util::Config::Parse("a = 1\nb=hello\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->GetInt("a"), 1);
  EXPECT_EQ(cfg->GetString("b"), "hello");
  EXPECT_EQ(cfg->GetIntOr("missing", 7), 7);
  EXPECT_EQ(cfg->GetStringOr("missing", "x"), "x");
}

TEST(ConfigTest, RejectsMissingValue) {
  std::string error;
  EXPECT_FALSE(util::Config::Parse("orphankey\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(ConfigTest, DurationUnits) {
  EXPECT_EQ(util::ParseDuration("250us"), Duration(std::chrono::microseconds(250)));
  EXPECT_EQ(util::ParseDuration("133ms"), Duration(std::chrono::milliseconds(133)));
  EXPECT_EQ(util::ParseDuration("7.5m"), Duration(std::chrono::seconds(450)));
  EXPECT_EQ(util::ParseDuration("100"), Duration(100));
  EXPECT_FALSE(util::ParseDuration("abc").has_value());
  EXPECT_FALSE(util::ParseDuration("5 parsecs").has_value());
}

TEST(ConfigTest, TypeMismatchYieldsNullopt) {
  const auto cfg = util::Config::Parse("k hello\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_FALSE(cfg->GetInt("k").has_value());
  EXPECT_FALSE(cfg->GetBool("k").has_value());
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, HistogramBasics) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.RecordNanos(i * 1000);
  const obs::HistogramStat d = h.Digest();
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(d.minNanos, 1000);
  EXPECT_EQ(d.maxNanos, 100000);
  EXPECT_NEAR(h.MeanNanos(), 50500.0, 1.0);
  EXPECT_NEAR(static_cast<double>(d.Percentile(0.5)), 50000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(d.Percentile(0.99)), 99000.0, 2000.0);
}

TEST(StatsTest, EmptyHistogramSafe) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.MeanNanos(), 0.0);
  EXPECT_EQ(h.Digest().Percentile(0.5), 0);
}

TEST(StatsTest, FormatNanosUnits) {
  EXPECT_EQ(util::FormatNanos(312), "312ns");
  EXPECT_EQ(util::FormatNanos(41200), "41.20us");
  EXPECT_EQ(util::FormatNanos(1.5e9), "1.50s");
}

// ----------------------------------------------------------- Error names

TEST(ErrorNameTest, EveryXrdErrHasAName) {
  EXPECT_STREQ(XrdErrName(proto::XrdErr::kLoop), "redirect loop");
  for (const proto::XrdErr err :
       {proto::XrdErr::kNone, proto::XrdErr::kNotFound, proto::XrdErr::kIo,
        proto::XrdErr::kExists, proto::XrdErr::kInvalid, proto::XrdErr::kNoSpace,
        proto::XrdErr::kLoop, proto::XrdErr::kStale}) {
    EXPECT_STRNE(XrdErrName(err), "unknown error") << static_cast<int>(err);
  }
}

}  // namespace
}  // namespace scalla
