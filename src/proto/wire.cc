#include "proto/wire.h"

#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>

#include "proto/wire_fields.h"

namespace scalla::proto {
namespace {

class Writer {
 public:
  std::string out;

  void Put(bool v) { out.push_back(v ? 1 : 0); }
  void Put(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void Put(std::uint32_t v) { PutLe(v); }
  void Put(std::int32_t v) { PutLe(static_cast<std::uint32_t>(v)); }
  void Put(std::uint64_t v) { PutLe(v); }
  void Put(std::int64_t v) { PutLe(static_cast<std::uint64_t>(v)); }
  void Put(const std::string& s) {
    Put(static_cast<std::uint32_t>(s.size()));
    out.append(s);
  }
  void Put(const std::vector<std::string>& v) {
    Put(static_cast<std::uint32_t>(v.size()));
    for (const auto& s : v) Put(s);
  }
  void Put(const ReadSeg& seg) {
    Put(seg.offset);
    Put(seg.length);
  }
  void Put(const std::vector<ReadSeg>& v) {
    Put(static_cast<std::uint32_t>(v.size()));
    for (const auto& seg : v) Put(seg);
  }
  // Doubles travel as their IEEE-754 bit pattern in a u64 (exact round-trip).
  void Put(double v) { Put(std::bit_cast<std::uint64_t>(v)); }
  // A histogram travels as its exact fields and its sparse buckets.
  void Put(const obs::HistogramStat& h) {
    Fields(h.count, h.sumNanos, h.minNanos, h.maxNanos);
    Put(static_cast<std::uint32_t>(h.buckets.size()));
    for (const auto& [index, n] : h.buckets) Fields(index, n);
  }
  void Put(const obs::MetricsSnapshot& s) {
    Put(static_cast<std::uint32_t>(s.counters.size()));
    for (const auto& [name, v] : s.counters) Fields(name, v);
    Put(static_cast<std::uint32_t>(s.gauges.size()));
    for (const auto& [name, v] : s.gauges) Fields(name, v);
    Put(static_cast<std::uint32_t>(s.histograms.size()));
    for (const auto& [name, h] : s.histograms) Fields(name, h);
  }
  template <typename E>
    requires std::is_enum_v<E>
  void Put(E v) {
    Put(static_cast<std::underlying_type_t<E>>(v));
  }

  template <typename... Ts>
  void Fields(const Ts&... fields) {
    (Put(fields), ...);
  }

 private:
  template <typename T>
  void PutLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
};

class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  bool ok() const { return ok_ && in_.empty(); }

  void Get(bool& v) {
    std::uint8_t b = 0;
    GetLe(b);
    v = b != 0;
  }
  void Get(std::uint8_t& v) { GetLe(v); }
  void Get(std::uint32_t& v) { GetLe(v); }
  void Get(std::int32_t& v) {
    std::uint32_t u = 0;
    GetLe(u);
    v = static_cast<std::int32_t>(u);
  }
  void Get(std::uint64_t& v) { GetLe(v); }
  void Get(std::int64_t& v) {
    std::uint64_t u = 0;
    GetLe(u);
    v = static_cast<std::int64_t>(u);
  }
  void Get(std::string& s) {
    std::uint32_t len = 0;
    GetLe(len);
    if (!ok_ || len > in_.size() || len > kMaxFrameBody) {
      ok_ = false;
      return;
    }
    s.assign(in_.data(), len);
    in_.remove_prefix(len);
  }
  void Get(std::vector<std::string>& v) {
    std::uint32_t count = 0;
    GetLe(count);
    if (!ok_ || count > in_.size()) {  // each entry needs >= 4 bytes
      ok_ = false;
      return;
    }
    v.clear();
    v.reserve(count);
    for (std::uint32_t i = 0; i < count && ok_; ++i) {
      v.emplace_back();
      Get(v.back());
    }
  }
  void Get(ReadSeg& seg) {
    GetLe(seg.offset);
    GetLe(seg.length);
  }
  void Get(std::vector<ReadSeg>& v) {
    std::uint32_t count = 0;
    GetLe(count);
    if (!ok_ || count > in_.size()) {  // each entry needs >= 12 bytes
      ok_ = false;
      return;
    }
    v.clear();
    v.reserve(count);
    for (std::uint32_t i = 0; i < count && ok_; ++i) {
      v.emplace_back();
      Get(v.back());
    }
  }
  void Get(double& v) {
    std::uint64_t bits = 0;
    GetLe(bits);
    v = std::bit_cast<double>(bits);
  }
  // Rejects a histogram that breaks HistogramStat::Valid (a bucket out of
  // range or out of order, counts that do not sum to `count`): a hostile
  // frame must not reach Percentile or a merge.
  void Get(obs::HistogramStat& h) {
    Fields(h.count, h.sumNanos, h.minNanos, h.maxNanos);
    std::uint32_t n = 0;
    GetLe(n);
    if (!ok_ || n > obs::HistogramStat::kBuckets || n > in_.size() / 12) {  // 12 B each
      ok_ = false;
      return;
    }
    h.buckets.resize(n);
    for (auto& [index, count] : h.buckets) Fields(index, count);
    if (ok_ && !h.Valid()) ok_ = false;
  }
  void Get(obs::MetricsSnapshot& s) {
    const auto table = [this](auto& entries) {
      std::uint32_t count = 0;
      GetLe(count);
      if (!ok_ || count > in_.size()) {  // each entry needs >= 4 bytes of name
        ok_ = false;
        return;
      }
      entries.clear();
      entries.reserve(count);
      for (std::uint32_t i = 0; i < count && ok_; ++i) {
        entries.emplace_back();
        Fields(entries.back().first, entries.back().second);
      }
    };
    table(s.counters);
    table(s.gauges);
    table(s.histograms);
  }
  template <typename E>
    requires std::is_enum_v<E>
  void Get(E& v) {
    std::underlying_type_t<E> raw{};
    Get(raw);
    v = static_cast<E>(raw);
  }

  template <typename... Ts>
  void Fields(Ts&... fields) {
    (Get(fields), ...);
  }

 private:
  template <typename T>
  void GetLe(T& v) {
    if (!ok_ || in_.size() < sizeof(T)) {
      ok_ = false;
      v = T{};
      return;
    }
    T out{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(static_cast<unsigned char>(in_[i])) << (8 * i);
    }
    in_.remove_prefix(sizeof(T));
    v = out;
  }

  std::string_view in_;
  bool ok_ = true;
};

// Field lists live in proto/wire_fields.h (one Visit overload per message
// type), shared by Encode (Writer), Decode (Reader), and tests.

template <std::size_t I = 0>
std::optional<Message> DecodeIndex(std::size_t index, Reader& reader) {
  if constexpr (I >= std::variant_size_v<Message>) {
    (void)reader;
    return std::nullopt;
  } else {
    if (index == I) {
      std::variant_alternative_t<I, Message> m{};
      wire::Visit(reader, m);
      if (!reader.ok()) return std::nullopt;
      return Message(std::move(m));
    }
    return DecodeIndex<I + 1>(index, reader);
  }
}

// The bulk data field `message` ends with, or null. Being the last field,
// its u32 length is the last thing written before its bytes.
std::string* TrailingBulk(Message& message) {
  if (auto* m = std::get_if<XrdReadResp>(&message)) return &m->data;
  if (auto* m = std::get_if<XrdWrite>(&message)) return &m->data;
  return nullptr;
}

}  // namespace

std::string Encode(const Message& message) {
  std::string out;
  EncodeAppend(message, out);
  return out;
}

void EncodeAppend(const Message& message, std::string& out) {
  // The Writer swaps the caller's buffer in and out, so encoding into a
  // pooled buffer with enough capacity performs no allocation.
  Writer writer;
  writer.out.swap(out);
  writer.Put(static_cast<std::uint8_t>(message.index()));
  std::visit(
      [&writer](const auto& m) {
        wire::Visit(writer, const_cast<std::decay_t<decltype(m)>&>(m));
      },
      message);
  out.swap(writer.out);
}

void EncodeAppendSplit(Message& message, std::string& out, std::string& payload) {
  payload.clear();
  std::string* bulk = TrailingBulk(message);
  if (bulk != nullptr) {
    payload = std::move(*bulk);
    bulk->clear();
  }
  EncodeAppend(message, out);  // the data field encodes as length 0
  if (bulk == nullptr) return;
  const auto length = static_cast<std::uint32_t>(payload.size());
  char* tail = out.data() + out.size() - sizeof(length);
  for (std::size_t i = 0; i < sizeof(length); ++i) {
    tail[i] = static_cast<char>((length >> (8 * i)) & 0xFF);
  }
}

std::optional<Message> Decode(std::string_view body) {
  if (body.empty() || body.size() > kMaxFrameBody) return std::nullopt;
  const auto index = static_cast<std::size_t>(static_cast<unsigned char>(body[0]));
  Reader reader(body.substr(1));
  return DecodeIndex(index, reader);
}

const char* MessageName(const Message& m) {
  static constexpr const char* kNames[] = {
      "CmsLogin", "CmsLoginResp", "CmsQuery", "CmsHave", "CmsNoHave", "CmsGone",
      "CmsLoad", "XrdOpen", "XrdOpenResp", "XrdRead", "XrdReadResp", "XrdWrite",
      "XrdWriteResp", "XrdClose", "XrdCloseResp", "XrdStat", "XrdStatResp",
      "XrdUnlink", "XrdUnlinkResp", "XrdPrepare", "XrdPrepareResp", "CnsList",
      "CnsListResp", "XrdReadV", "XrdReadVResp", "XrdChecksum", "XrdChecksumResp",
      "StatsQuery", "StatsReply", "PcacheAdmin", "PcacheAdminResp", "CmsPing",
      "CmsPong", "CmsDeath", "CmsDrain", "CmsDrainResp", "FedLocate",
      "FedRedirect"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == std::variant_size_v<Message>);
  return kNames[m.index()];
}

}  // namespace scalla::proto
