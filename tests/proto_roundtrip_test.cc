// Seeded wire-format property test: every proto::Message alternative is
// filled with randomized field values (via the shared wire_fields.h
// visitor, so new fields are picked up automatically), encoded, decoded,
// and re-encoded byte-exactly. Truncating the frame at EVERY split point
// must be rejected, as must trailing garbage — the decoder's contract is
// "whole frame or nothing" (Reader::ok() demands full consumption). The
// split encoding the TCP send path uses (fields, then a moved-out bulk
// field) must equal the one-buffer encoding for every alternative too.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "proto/wire.h"
#include "proto/wire_fields.h"
#include "util/rng.h"

namespace scalla::proto {
namespace {

// An archive (in the wire_fields.h sense) that fills fields with seeded
// pseudo-random values: arbitrary bytes in strings (including NULs),
// arbitrary raw values in enums, short but non-trivial containers.
struct Filler {
  util::Rng& rng;

  template <typename... Ts>
  void Fields(Ts&... fields) {
    (Fill(fields), ...);
  }

  void Fill(bool& v) { v = rng.NextBool(); }
  void Fill(std::uint8_t& v) { v = static_cast<std::uint8_t>(rng.Next()); }
  void Fill(std::uint32_t& v) { v = static_cast<std::uint32_t>(rng.Next()); }
  void Fill(std::int32_t& v) { v = static_cast<std::int32_t>(rng.Next()); }
  void Fill(std::uint64_t& v) { v = rng.Next(); }
  void Fill(std::int64_t& v) { v = static_cast<std::int64_t>(rng.Next()); }
  void Fill(double& v) { v = rng.NextDouble() * 1e12 - 5e11; }
  void Fill(std::string& s) {
    s.clear();
    const std::uint64_t len = rng.NextBelow(9);
    for (std::uint64_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.Next()));  // any byte, NULs included
    }
  }
  void Fill(std::vector<std::string>& v) {
    v.resize(rng.NextBelow(4));
    for (auto& s : v) Fill(s);
  }
  void Fill(ReadSeg& seg) {
    Fill(seg.offset);
    Fill(seg.length);
  }
  void Fill(std::vector<ReadSeg>& v) {
    v.resize(rng.NextBelow(4));
    for (auto& seg : v) Fill(seg);
  }
  // Histograms must be valid to decode (HistogramStat::Valid): sparse
  // buckets at increasing indices whose counts sum to `count`.
  void Fill(obs::HistogramStat& h) {
    h = obs::HistogramStat{};
    std::uint32_t index = static_cast<std::uint32_t>(rng.NextBelow(64));
    for (std::uint64_t n = rng.NextBelow(4); n > 0 && index < obs::HistogramStat::kBuckets; --n) {
      const std::uint64_t count = 1 + rng.NextBelow(1000);
      h.buckets.emplace_back(index, count);
      h.count += count;
      index += 1 + static_cast<std::uint32_t>(rng.NextBelow(700));
    }
    Fill(h.sumNanos);
    if (h.count > 0) {
      h.minNanos = static_cast<std::int64_t>(rng.NextBelow(1u << 20));
      h.maxNanos = h.minNanos + static_cast<std::int64_t>(rng.NextBelow(1u << 30));
    }
  }
  void Fill(obs::MetricsSnapshot& s) {
    const auto table = [this](auto& entries) {
      entries.resize(rng.NextBelow(3));
      for (auto& [name, value] : entries) {
        Fill(name);
        Fill(value);
      }
    };
    table(s.counters);
    table(s.gauges);
    table(s.histograms);
  }
  template <typename E>
    requires std::is_enum_v<E>
  void Fill(E& v) {
    // Arbitrary raw values: the wire layer transports enums verbatim
    // (validation is the handlers' business), so round-trip must hold for
    // out-of-range values too.
    std::underlying_type_t<E> raw{};
    Fill(raw);
    v = static_cast<E>(raw);
  }
};

// EncodeAppendSplit appends to what `fields` already holds and moves a
// trailing bulk field out whole: the appended fields followed by the
// payload are Encode(message) byte for byte and decode back field for
// field. Only XrdReadResp and XrdWrite give up a payload, and theirs is
// the message's own buffer, not a copy.
void ExpectSplitMatchesEncode(const Message& message) {
  const std::string whole = Encode(message);
  Message moved = message;
  std::string* data = nullptr;
  if (auto* m = std::get_if<XrdReadResp>(&moved)) data = &m->data;
  if (auto* m = std::get_if<XrdWrite>(&moved)) data = &m->data;
  const std::size_t dataBytes = data != nullptr ? data->size() : 0;
  const char* buffer = data != nullptr ? data->data() : nullptr;

  std::string fields = "header";
  std::string payload = "stale";
  EncodeAppendSplit(moved, fields, payload);
  ASSERT_EQ(fields.substr(0, 6), "header");
  const std::string joined = fields.substr(6) + payload;
  EXPECT_EQ(joined, whole);
  EXPECT_EQ(payload.size(), dataBytes);
  if (data != nullptr) {
    EXPECT_TRUE(data->empty());
    if (dataBytes > 64) {
      EXPECT_EQ(payload.data(), buffer);  // moved, not copied
    }
  }
  const auto decoded = Decode(joined);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->index(), message.index());
  EXPECT_EQ(Encode(*decoded), whole);
}

template <std::size_t I>
void RoundTripAlternative(util::Rng& rng) {
  using M = std::variant_alternative_t<I, Message>;
  for (int iter = 0; iter < 16; ++iter) {
    M filled{};
    Filler filler{rng};
    wire::Visit(filler, filled);
    const Message msg{std::in_place_index<I>, std::move(filled)};
    const std::string bytes = Encode(msg);
    SCOPED_TRACE("alternative " + std::to_string(I) + " iter " +
                 std::to_string(iter));

    const auto decoded = Decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->index(), I);
    // Byte-exact re-encode is the equality check: it covers every field
    // without requiring operator== on message structs.
    EXPECT_EQ(Encode(*decoded), bytes);

    // Every proper prefix must be rejected — a frame split at ANY point
    // (the transport's framing bug, a hostile peer) never half-parses.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      ASSERT_FALSE(Decode(std::string_view(bytes).substr(0, cut)).has_value())
          << "prefix of " << cut << "/" << bytes.size() << " bytes parsed";
    }
    // So must trailing garbage: full consumption is part of validity.
    ASSERT_FALSE(Decode(bytes + '\0').has_value());

    ExpectSplitMatchesEncode(msg);
  }
}

template <std::size_t... Is>
void RoundTripAll(util::Rng& rng, std::index_sequence<Is...>) {
  (RoundTripAlternative<Is>(rng), ...);
}

TEST(ProtoRoundTripTest, EveryAlternativeSeededRoundTrip) {
  // Fixed seed: failures reproduce exactly; bump iterations locally when
  // hunting a suspected encoding bug.
  util::Rng rng(0xB17E5EEDULL);
  RoundTripAll(rng, std::make_index_sequence<std::variant_size_v<Message>>{});
}

TEST(ProtoRoundTripTest, SplitEncodingOfEmptyOneByteAndOneMiBData) {
  util::Rng rng(0xDA7AULL);
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{1}, std::size_t{1} << 20}) {
    SCOPED_TRACE("data bytes " + std::to_string(bytes));
    std::string data(bytes, '\0');
    for (char& c : data) c = static_cast<char>(rng.Next());
    XrdReadResp resp;
    resp.reqId = rng.Next();
    resp.err = XrdErr::kIo;
    resp.data = data;
    ExpectSplitMatchesEncode(resp);
    XrdWrite write;
    write.reqId = rng.Next();
    write.fileHandle = rng.Next();
    write.offset = rng.Next();
    write.data = data;
    ExpectSplitMatchesEncode(write);
  }
}

TEST(ProtoRoundTripTest, RejectsUnknownTypeAndEmptyFrame) {
  EXPECT_FALSE(Decode(std::string_view{}).has_value());
  std::string bogus(1, static_cast<char>(std::variant_size_v<Message>));
  EXPECT_FALSE(Decode(bogus).has_value());
  bogus[0] = static_cast<char>(0xff);
  EXPECT_FALSE(Decode(bogus).has_value());
}

}  // namespace
}  // namespace scalla::proto
