#include "workload.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "host.h"

namespace perfbench {

using scalla::client::OpenOutcome;
using scalla::proto::XrdErr;

namespace {

constexpr std::uint64_t kWordMul = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kVersionMul = 0xD1B54A32D192ED03ULL;
// data_mix set-up runs the mix this long (in operations) before timing so
// the proxy's DRAM and disk tiers hold their steady-state working set.
constexpr std::uint64_t kMixFillOps = 12'000;
constexpr int kSetupParallel = 64;

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<std::uint32_t> Permutation(std::size_t n, scalla::util::Rng& rng) {
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.NextBelow(i)]);
  return p;
}

void WaitUntil(const std::function<bool()>& done, const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) Fatal(std::string(what) + " timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  if (name == "warm_open") {
    *out = WorkloadKind::kWarmOpen;
  } else if (name == "cold_open") {
    *out = WorkloadKind::kColdOpen;
  } else if (name == "data_mix") {
    *out = WorkloadKind::kDataMix;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kWarmOpen:
      return "warm_open";
    case WorkloadKind::kColdOpen:
      return "cold_open";
    case WorkloadKind::kDataMix:
      break;
  }
  return "data_mix";
}

// ----------------------------------------------------------- Namespace

Namespace::Namespace(std::uint64_t seed) : seed_(seed), runBase_(Mix64(seed) % 900'000) {}

std::string Namespace::Path(std::size_t i) const {
  return scalla::util::MakeFilePath(runBase_ + i / 1000, i % 1000);
}

std::string Namespace::WarmupPath(std::size_t i) const { return "/warmup" + Path(i); }

int Namespace::LeafOf(std::size_t i) const {
  return static_cast<int>(Mix64(seed_ * 0x100000001B3ULL + i) % kLeaves);
}

std::uint64_t Namespace::FileKey(std::size_t i) const {
  return Mix64(seed_ ^ Mix64(i + 0x5CA11A));
}

void FillContent(std::string* out, std::size_t bytes, std::uint64_t key,
                 std::uint64_t firstByte, std::uint64_t version) {
  out->resize(bytes);
  const std::uint64_t base = key ^ (version * kVersionMul);
  const std::uint64_t w0 = firstByte / 8;
  char* p = out->data();
  for (std::size_t j = 0; j < bytes / 8; ++j) {
    const std::uint64_t v = base ^ ((w0 + j) * kWordMul);
    std::memcpy(p + 8 * j, &v, 8);
  }
}

bool CheckContent(const std::string& data, std::uint64_t key, std::uint64_t firstByte,
                  std::uint64_t version) {
  if (data.size() % 8 != 0) return false;
  const std::uint64_t base = key ^ (version * kVersionMul);
  const std::uint64_t w0 = firstByte / 8;
  const char* p = data.data();
  for (std::size_t j = 0; j < data.size() / 8; ++j) {
    std::uint64_t v = 0;
    std::memcpy(&v, p + 8 * j, 8);
    if (v != (base ^ ((w0 + j) * kWordMul))) return false;
  }
  return true;
}

// -------------------------------------------------------------- LoadGen

LoadGen::LoadGen(WorkloadKind kind, const Namespace& ns, Cluster& cluster, Tracer* tracer)
    : kind_(kind), ns_(ns), cluster_(cluster), tracer_(tracer) {
  const int endpoints = kind == WorkloadKind::kDataMix ? 2 : 1;
  for (int i = 0; i < endpoints; ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->index = i;
    ep->client = &cluster.Client(i);
    ep->exec = &cluster.ClientExecutor(i);
    ep->rng = scalla::util::Rng(Mix64(ns.seed() + 17 * (i + 1)));
    endpoints_.push_back(std::move(ep));
  }
  scalla::util::Rng rng(Mix64(ns.seed() ^ 0xC01D));
  switch (kind) {
    case WorkloadKind::kWarmOpen:
      for (std::size_t i = 0; i < kWarmFiles; ++i) warmPaths_.push_back(ns.Path(i));
      perm_ = Permutation(kWarmFiles, rng);
      zipf_ = std::make_unique<scalla::util::ZipfSampler>(kWarmFiles, 1.0);
      break;
    case WorkloadKind::kColdOpen:
      perm_ = Permutation(kColdFiles, rng);
      break;
    case WorkloadKind::kDataMix:
      perm_ = Permutation(kReadFiles * kReadFileBlocks, rng);
      zipf_ = std::make_unique<scalla::util::ZipfSampler>(kReadFiles * kReadFileBlocks, 1.0);
      versions_.assign(kWriteFiles * kWriteFileBlocks, 0);
      break;
  }
}

LoadGen::~LoadGen() = default;

void LoadGen::PlaceNamespace() {
  auto put = [&](std::size_t i, const std::string& path, std::string data) {
    cluster_.LeafStore(ns_.LeafOf(i)).Put(path, std::move(data));
  };
  switch (kind_) {
    case WorkloadKind::kWarmOpen:
      for (std::size_t i = 0; i < kWarmFiles; ++i) put(i, warmPaths_[i], {});
      break;
    case WorkloadKind::kColdOpen:
      for (std::size_t i = 0; i < kColdFiles; ++i) put(i, ns_.Path(i), {});
      for (std::size_t i = 0; i < kColdWarmupFiles; ++i) put(i, ns_.WarmupPath(i), {});
      break;
    case WorkloadKind::kDataMix:
      for (std::size_t i = 0; i < kReadFiles + kWriteFiles; ++i) {
        const std::size_t blocks = i < kReadFiles ? kReadFileBlocks : kWriteFileBlocks;
        std::string content;
        FillContent(&content, blocks * kBlockBytes, ns_.FileKey(i), 0, 0);
        put(i, ns_.Path(i), std::move(content));
      }
      break;
  }
}

LoadGen::Op LoadGen::OpenCloseOp(const std::string& path, int leaf) const {
  Op op;
  op.path = path;
  op.expectNode = LeafAddr(leaf);
  return op;
}

void LoadGen::WarmUp() {
  std::vector<Op> ops;
  switch (kind_) {
    case WorkloadKind::kWarmOpen:
      for (std::size_t i = 0; i < kWarmFiles; ++i) {
        ops.push_back(OpenCloseOp(warmPaths_[i], ns_.LeafOf(i)));
      }
      RunBatch(0, std::move(ops), kSetupParallel);
      break;
    case WorkloadKind::kColdOpen:
      for (std::size_t i = 0; i < kColdWarmupFiles; ++i) {
        ops.push_back(OpenCloseOp(ns_.WarmupPath(i), ns_.LeafOf(i)));
      }
      RunBatch(0, std::move(ops), kSetupParallel);
      break;
    case WorkloadKind::kDataMix: {
      for (std::size_t i = 0; i < kReadFiles; ++i) {
        Op op = OpenCloseOp(ns_.Path(i), 0);
        op.expectNode = kProxyAddr;  // the proxy serves the file itself
        op.expectRedirects = 0;
        ops.push_back(std::move(op));
      }
      RunBatch(0, std::move(ops), kSetupParallel);
      std::vector<Op> writes;
      for (std::size_t i = kReadFiles; i < kReadFiles + kWriteFiles; ++i) {
        writes.push_back(OpenCloseOp(ns_.Path(i), ns_.LeafOf(i)));
        writes.back().mode = scalla::cms::AccessMode::kWrite;
      }
      RunBatch(1, std::move(writes), kSetupParallel);
      warmupDone_ = 0;
      Start();
      WaitUntil([&] { return warmupDone_.load() >= kMixFillOps; }, "data_mix tier fill");
      Stop();
      break;
    }
  }
}

void LoadGen::StartSlots(int endpoint, int perEndpoint) {
  for (auto& ep : endpoints_) {
    if (endpoint >= 0 && ep->index != endpoint) continue;
    for (int i = 0; i < perEndpoint; ++i) {
      Slot& s = slots_.emplace_back();
      s.ep = ep.get();
      s.index = i;
      activeSlots_.fetch_add(1);
      ep->exec->Post([this, &s] { StartOp(s); });
    }
  }
}

void LoadGen::RunBatch(int endpoint, std::vector<Op> ops, int parallel) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(endpoint)];
  ep.batch = std::move(ops);
  ep.batchNext = 0;
  batchMode_ = true;
  StartSlots(endpoint, parallel);
  WaitUntil([&] { return activeSlots_.load() == 0; }, "set-up batch");
  batchMode_ = false;
  MergeChecks();
}

void LoadGen::Start() {
  {
    std::lock_guard lock(gateMu_);
    mixReads_ = 0;
    mixWrites_ = 0;
  }
  stopping_ = false;
  StartSlots(-1, kInFlight);
}

std::int64_t LoadGen::BeginWindow() {
  for (auto& ep : endpoints_) {
    ep->stats = WindowStats{};
    ep->stats.samples.reserve(1 << 20);
  }
  windowDone_ = 0;
  windowStartNs_ = NowNs();
  measured_ = true;
  return windowStartNs_;
}

std::int64_t LoadGen::EndWindow() {
  measured_ = false;
  windowEndNs_ = NowNs();
  rssAtEnd_ = RssMib();
  return windowEndNs_;
}

void LoadGen::MergeWindow() {
  window_ = WindowStats{};
  window_.startNs = windowStartNs_;
  window_.endNs = windowEndNs_;
  for (auto& ep : endpoints_) {
    WindowStats& s = ep->stats;
    window_.completed += s.completed;
    window_.failed += s.failed;
    window_.reads += s.reads;
    window_.writes += s.writes;
    window_.payloadBytes += s.payloadBytes;
    window_.samples.insert(window_.samples.end(), s.samples.begin(), s.samples.end());
    s = WindowStats{};
  }
  window_.rssAtMark = windowDone_.load() >= kRssMarkOps;
  window_.rssMib = window_.rssAtMark ? rssAtMark_ : rssAtEnd_;
}

void LoadGen::Stop() {
  stopping_ = true;
  {
    // Parked slots have nothing in flight; they stop here. A slot woken
    // but not yet run sees stopping_ and stops itself.
    std::lock_guard lock(gateMu_);
    activeSlots_.fetch_sub(static_cast<std::int64_t>(parkedReads_.size() + parkedWrites_.size()));
    parkedReads_.clear();
    parkedWrites_.clear();
  }
  WaitUntil([&] { return activeSlots_.load() == 0; }, "draining in-flight operations");
  MergeChecks();
  if (windowEndNs_ > 0) MergeWindow();
}

void LoadGen::MergeChecks() {
  for (auto& ep : endpoints_) {
    AnswerChecks& c = ep->checks;
    checks_.failed += c.failed;
    checks_.wrongNode += c.wrongNode;
    checks_.wrongBytes += c.wrongBytes;
    checks_.unexpectedRedirects += c.unexpectedRedirects;
    checks_.waits += c.waits;
    if (checks_.firstError.empty()) checks_.firstError = c.firstError;
    c = AnswerChecks{};
  }
}

LoadGen::Next LoadGen::NextOp(Slot& s) {
  if (stopping_.load()) return Next::kStop;
  if (!batchMode_.load()) return NextWorkloadOp(s);
  Endpoint& ep = *s.ep;
  if (ep.batchNext >= ep.batch.size()) return Next::kStop;
  s.op = ep.batch[ep.batchNext++];
  return Next::kGo;
}

LoadGen::Next LoadGen::NextWorkloadOp(Slot& s) {
  Endpoint& ep = *s.ep;
  switch (kind_) {
    case WorkloadKind::kWarmOpen: {
      const std::size_t i = perm_[zipf_->Sample(ep.rng)];
      s.op = OpenCloseOp(warmPaths_[i], ns_.LeafOf(i));
      return Next::kGo;
    }
    case WorkloadKind::kColdOpen: {
      if (coldNext_ >= perm_.size()) {
        Fail(s, nullptr, "cold_open walked its whole namespace; the run is too long");
        return Next::kStop;
      }
      const std::size_t i = perm_[coldNext_++];
      s.op = OpenCloseOp(ns_.Path(i), ns_.LeafOf(i));
      return Next::kGo;
    }
    case WorkloadKind::kDataMix:
      break;
  }
  const bool write = ep.index == 1;
  if (const Next admit = AdmitMix(s, write); admit != Next::kGo) return admit;
  Op op;
  if (!write) {
    const std::size_t b = perm_[zipf_->Sample(ep.rng)];
    const std::size_t file = b / kReadFileBlocks;
    op.kind = OpKind::kRead;
    op.path = ns_.Path(file);
    op.expectNode = kProxyAddr;
    op.expectRedirects = 0;
    op.key = ns_.FileKey(file);
    op.block = b % kReadFileBlocks;
  } else {
    // Slot i owns the write files congruent to i, so no two writes to one
    // block are ever in flight and the last version sent is the last
    // version stored.
    const std::size_t f =
        static_cast<std::size_t>(s.index) + kInFlight * ep.rng.NextBelow(kWriteFiles / kInFlight);
    const std::size_t block = ep.rng.NextBelow(kWriteFileBlocks);
    const std::size_t file = kReadFiles + f;
    op.kind = OpKind::kWrite;
    op.mode = scalla::cms::AccessMode::kWrite;
    op.path = ns_.Path(file);
    op.expectNode = LeafAddr(ns_.LeafOf(file));
    op.key = ns_.FileKey(file);
    op.block = block;
    op.version = ++versions_[f * kWriteFileBlocks + block];
  }
  s.op = std::move(op);
  return Next::kGo;
}

LoadGen::Next LoadGen::AdmitMix(Slot& s, bool write) {
  std::vector<Slot*> wake;
  {
    std::lock_guard lock(gateMu_);
    if (stopping_.load()) return Next::kStop;
    const auto admissible = [&](bool w) {
      const std::int64_t lead = mixReads_ - kReadsPerWrite * mixWrites_;
      return w ? lead > -kReadsPerWrite * kInFlight : lead < kReadsPerWrite * kInFlight;
    };
    if (!admissible(write)) {
      (write ? parkedWrites_ : parkedReads_).push_back(&s);
      return Next::kPark;
    }
    ++(write ? mixWrites_ : mixReads_);
    if (admissible(!write)) wake.swap(write ? parkedReads_ : parkedWrites_);
  }
  for (Slot* w : wake) w->ep->exec->Post([this, w] { StartOp(*w); });
  return Next::kGo;
}

void LoadGen::StartOp(Slot& s) {
  const Next next = NextOp(s);
  if (next == Next::kPark) return;
  if (next == Next::kStop) {
    activeSlots_.fetch_sub(1);
    return;
  }
  Endpoint& ep = *s.ep;
  s.traceId = (static_cast<std::uint64_t>(ep.index + 1) << 48) | ep.nextOp++;
  s.ok = true;
  s.startNs = NowNs();
  Span api(tracer_, "client.api", Layer::kClient, 0, s.traceId);
  ep.client->Open(s.op.path, s.op.mode, false,
                  [this, &s](const OpenOutcome& outcome) { OnOpen(s, outcome); });
}

void LoadGen::Fail(Slot& s, std::uint64_t AnswerChecks::*counter, const std::string& what) {
  AnswerChecks& c = s.ep->checks;
  if (s.ok) ++c.failed;
  s.ok = false;
  if (counter != nullptr) ++(c.*counter);
  if (c.firstError.empty()) c.firstError = what + " (" + s.op.path + ")";
}

void LoadGen::OnOpen(Slot& s, const OpenOutcome& outcome) {
  s.openNs = NowNs() - s.startNs;
  {
    Span check(tracer_, "loadgen.check", Layer::kLoadGen);
    if (outcome.err != XrdErr::kNone) {
      Fail(s, nullptr, "open failed with error " + std::to_string(static_cast<int>(outcome.err)));
    } else {
      if (outcome.file.node != s.op.expectNode) {
        Fail(s, &AnswerChecks::wrongNode,
             "open reached node " + std::to_string(outcome.file.node) + ", expected " +
                 std::to_string(s.op.expectNode));
      }
      if (outcome.redirects != s.op.expectRedirects) {
        Fail(s, &AnswerChecks::unexpectedRedirects,
             "open followed " + std::to_string(outcome.redirects) + " redirects");
      }
      if (outcome.waits != 0) Fail(s, &AnswerChecks::waits, "open was told to wait");
    }
  }
  if (outcome.err != XrdErr::kNone) {
    Finish(s);
    return;
  }
  s.file = outcome.file;
  Endpoint& ep = *s.ep;
  const std::uint64_t offset = s.op.block * kBlockBytes;
  Span api(tracer_, "client.api", Layer::kClient);
  switch (s.op.kind) {
    case OpKind::kOpenClose:
      Close(s);
      return;
    case OpKind::kRead:
      ep.client->Read(s.file, offset, kBlockBytes, [this, &s, offset](XrdErr err, std::string data) {
        bool ok = false;
        {
          Span check(tracer_, "loadgen.check", Layer::kLoadGen);
          ok = err == XrdErr::kNone && data.size() == kBlockBytes &&
               CheckContent(data, s.op.key, offset, 0);
        }
        if (!ok) Fail(s, &AnswerChecks::wrongBytes, "read returned wrong bytes");
        Close(s);
      });
      return;
    case OpKind::kWrite: {
      std::string data;
      {
        Span fill(tracer_, "loadgen.fill", Layer::kLoadGen);
        FillContent(&data, kBlockBytes, s.op.key, offset, s.op.version);
      }
      ep.client->Write(s.file, offset, std::move(data), [this, &s](XrdErr err, std::uint32_t n) {
        const bool ok = err == XrdErr::kNone && n == kBlockBytes;
        if (!ok) Fail(s, nullptr, "write failed");
        Close(s);
      });
      return;
    }
  }
}

void LoadGen::Close(Slot& s) {
  Span api(tracer_, "client.api", Layer::kClient);
  s.ep->client->Close(s.file, [this, &s](XrdErr err) {
    if (err != XrdErr::kNone) Fail(s, nullptr, "close failed");
    Finish(s);
  });
}

void LoadGen::Finish(Slot& s) {
  const std::int64_t end = NowNs();
  Endpoint& ep = *s.ep;
  if (measured_.load()) {
    Span record(tracer_, "loadgen.record", Layer::kLoadGen);
    WindowStats& w = ep.stats;
    if (!s.ok) {
      ++w.failed;
    } else {
      ++w.completed;
      w.samples.push_back({end, s.openNs, end - s.startNs, s.op.kind});
      if (s.op.kind != OpKind::kOpenClose) w.payloadBytes += kBlockBytes;
      w.reads += s.op.kind == OpKind::kRead;
      w.writes += s.op.kind == OpKind::kWrite;
      if (windowDone_.fetch_add(1) + 1 == kRssMarkOps) rssAtMark_ = RssMib();
    }
  }
  warmupDone_.fetch_add(1);
  StartOp(s);
}

void LoadGen::ReadBackWrites() {
  if (kind_ != WorkloadKind::kDataMix) return;
  for (std::size_t f = 0; f < kWriteFiles; ++f) {
    const std::size_t file = kReadFiles + f;
    for (std::size_t b = 0; b < kWriteFileBlocks; ++b) {
      const auto data = cluster_.LeafStore(ns_.LeafOf(file))
                            .Read(ns_.Path(file), b * kBlockBytes, kBlockBytes);
      ++checks_.readBackBlocks;
      if (!data.ok() || !CheckContent(data.value(), ns_.FileKey(file), b * kBlockBytes,
                                      versions_[f * kWriteFileBlocks + b])) {
        ++checks_.readBackMismatches;
        ++checks_.failed;
        if (checks_.firstError.empty()) {
          checks_.firstError = "written block not found in the leaf oss (" + ns_.Path(file) + ")";
        }
      }
    }
  }
}

}  // namespace perfbench
