#include "micro.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "cms/correction_state.h"
#include "cms/location_cache.h"
#include "cms/membership.h"
#include "cms/resolver.h"
#include "cms/response_queue.h"
#include "cms/selection.h"
#include "host.h"
#include "net/tcp_fabric.h"
#include "obs/metrics.h"
#include "oss/mem_oss.h"
#include "pcache/tiered_cache.h"
#include "proto/wire.h"
#include "sched/thread_executor.h"
#include "util/clock.h"

namespace perfbench {

namespace cms = scalla::cms;
namespace proto = scalla::proto;

namespace {

constexpr int kReps = 5;
constexpr std::int64_t kRepNs = 20'000'000;  // each repetition runs >= 20 ms

// Results feed this sink so the timed calls cannot be optimised away.
std::atomic<std::uint64_t> g_sink{0};
void Keep(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median over kReps repetitions of the mean time of one call of fn(i).
template <class Fn>
double NsPerCall(Fn&& fn) {
  std::size_t n = 16;
  for (;;) {
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    const std::int64_t dt = NowNs() - t0;
    if (dt >= kRepNs / 4) {
      n = static_cast<std::size_t>(static_cast<double>(n) * kRepNs / static_cast<double>(dt)) + 1;
      break;
    }
    n *= 4;
  }
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    reps.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(n));
  }
  return Median(reps);
}

// Median of kReps runs of `timed` (which returns ns per call) after an
// untimed `prepare` each.
template <class Prepare, class Timed>
double MedianOfFresh(Prepare&& prepare, Timed&& timed) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    prepare();
    reps.push_back(timed());
  }
  return Median(reps);
}

scalla::ServerSet FourServers(cms::CorrectionState& corrections) {
  scalla::ServerSet vm;
  for (int s = 0; s < kLeaves; ++s) {
    corrections.OnConnect(s);
    vm.set(s);
  }
  return vm;
}

void Proto(const Namespace& ns, std::vector<Metric>& out) {
  const std::string path = ns.Path(4242);
  std::string block;
  FillContent(&block, kBlockBytes, ns.FileKey(1), 0, 0);
  proto::XrdOpen open;
  open.reqId = 42;
  open.path = path;
  proto::XrdOpenResp resp;
  resp.reqId = 42;
  resp.status = proto::XrdStatus::kRedirect;
  resp.redirectNode = LeafAddr(2);
  proto::CmsQuery query;
  query.path = path;
  query.hash = cms::LocationCache::HashOf(path);
  proto::CmsHave have;
  have.path = path;
  have.hash = query.hash;
  proto::XrdReadResp readResp;
  readResp.reqId = 42;
  readResp.data = block;
  proto::XrdWrite write;
  write.reqId = 42;
  write.fileHandle = 7;
  write.offset = 3 * kBlockBytes;
  write.data = block;
  const std::pair<const char*, proto::Message> messages[] = {
      {"xrd_open", open},       {"xrd_open_resp", resp},
      {"cms_query", query},     {"cms_have", have},
      {"xrd_read_resp_64k", readResp}, {"xrd_write_64k", write}};
  for (const auto& [name, message] : messages) {
    std::string buf;
    const double enc = NsPerCall([&](std::size_t) {
      buf.clear();
      proto::EncodeAppend(message, buf);
      Keep(buf.size());
    });
    const std::string encoded = proto::Encode(message);
    const double dec = NsPerCall([&](std::size_t) {
      const auto decoded = proto::Decode(encoded);
      Keep(decoded.has_value() ? decoded->index() : 0);
    });
    out.push_back({std::string("proto.encode_ns.") + name, enc, "ns"});
    out.push_back({std::string("proto.decode_ns.") + name, dec, "ns"});
  }
}

// The manager's cache size during the workload's window.
std::size_t CacheEntries(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kWarmOpen:
      return kWarmFiles;
    case WorkloadKind::kColdOpen:
      return 1u << 17;  // warm-up prefix plus the opens of a window
    case WorkloadKind::kDataMix:
      break;
  }
  return kReadFiles + kWriteFiles;
}

void Cms(WorkloadKind kind, const Namespace& ns, std::vector<Metric>& out) {
  const std::size_t entries = CacheEntries(kind);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < entries; ++i) keys.push_back(ns.Path(i));
  scalla::util::Rng rng(ns.seed());
  std::vector<std::size_t> order(1 << 16);
  for (auto& o : order) o = rng.NextBelow(entries);

  out.push_back({"util.crc32_path_ns", NsPerCall([&](std::size_t i) {
                   Keep(cms::LocationCache::HashOf(keys[order[i & 0xFFFF]]));
                 }),
                 "ns"});

  const cms::CmsConfig config;
  scalla::util::ManualClock clock;
  {
    cms::CorrectionState corrections;
    const scalla::ServerSet vm = FourServers(corrections);
    cms::LocationCache cache(config, clock, corrections);
    for (const auto& k : keys) cache.Lookup(k, vm, scalla::ServerSet::None(), cms::LocationCache::AddPolicy::kCreate);
    out.push_back({"cms.lookup_hit_ns", NsPerCall([&](std::size_t i) {
                     const auto r = cache.Lookup(keys[order[i & 0xFFFF]], vm, scalla::ServerSet::None(),
                                                 cms::LocationCache::AddPolicy::kFindOnly);
                     Keep(r.found);
                   }),
                   "ns"});
  }
  {
    constexpr std::size_t kCreates = 20'000;
    std::vector<std::string> fresh;
    for (std::size_t i = 0; i < kCreates; ++i) fresh.push_back(ns.Path(entries + i));
    std::unique_ptr<cms::CorrectionState> corrections;
    std::unique_ptr<cms::LocationCache> cache;
    scalla::ServerSet vm;
    out.push_back({"cms.lookup_create_ns",
                   MedianOfFresh(
                       [&] {
                         cache.reset();
                         corrections = std::make_unique<cms::CorrectionState>();
                         vm = FourServers(*corrections);
                         cache = std::make_unique<cms::LocationCache>(config, clock, *corrections);
                         for (const auto& k : keys) {
                           cache->Lookup(k, vm, scalla::ServerSet::None(),
                                         cms::LocationCache::AddPolicy::kCreate);
                         }
                       },
                       [&] {
                         const std::int64_t t0 = NowNs();
                         for (const auto& k : fresh) {
                           Keep(cache->Lookup(k, vm, scalla::ServerSet::None(),
                                              cms::LocationCache::AddPolicy::kCreate)
                                    .created);
                         }
                         return static_cast<double>(NowNs() - t0) / kCreates;
                       }),
                   "ns"});
    cache.reset();
  }
  {
    // A warm Locate: every key cached with its holder, as the manager's
    // cache is after warm_open's set-up.
    cms::Membership membership(config, clock);
    for (int s = 0; s < kLeaves; ++s) membership.Login("leaf" + std::to_string(s), {"/"});
    cms::LocationCache cache(config, clock, membership.corrections());
    cms::FastResponseQueue respq(config, clock);
    cms::SelectionPolicy selection(cms::SelectCriterion::kRoundRobin);
    cms::Resolver resolver(config, clock, membership, cache, respq, selection,
                           [](scalla::ServerSet, const std::string&, std::uint32_t, cms::AccessMode) {});
    const std::size_t located = std::min<std::size_t>(entries, kWarmFiles);
    for (std::size_t i = 0; i < located; ++i) {
      resolver.Locate(keys[i], cms::LocateOptions{}, [](const cms::LocateResult&) {});
      resolver.OnHave(keys[i], cms::LocationCache::HashOf(keys[i]), ns.LeafOf(i), false, true);
    }
    std::uint64_t redirects = 0;
    const double ns_ = NsPerCall([&](std::size_t i) {
      resolver.Locate(keys[order[i & 0xFFFF] % located], cms::LocateOptions{},
                      [&](const cms::LocateResult& r) {
                        redirects += r.status == cms::LocateStatus::kRedirect;
                      });
    });
    Keep(redirects);
    out.push_back({"cms.locate_warm_ns", ns_, "ns"});
  }
}

void Sched(std::vector<Metric>& out) {
  scalla::sched::ThreadExecutor exec;
  std::atomic<std::int64_t> ranAt{0};
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    ranAt = 0;
    const std::int64_t t0 = NowNs();
    exec.Post([&] { ranAt = NowNs(); });
    while (ranAt.load() == 0) {
    }
    if (i >= 100) samples.push_back(static_cast<double>(ranAt.load() - t0) * 1e-3);
  }
  exec.Stop();
  out.push_back({"sched.post_run_us", Median(samples), "us"});
}

class ArrivalSink final : public scalla::net::MessageSink {
 public:
  void OnMessage(scalla::net::NodeAddr, proto::Message message) override {
    Keep(message.index());
    at.store(NowNs());
  }
  std::atomic<std::int64_t> at{0};
};

void Net(const Namespace& ns, std::uint16_t basePort, std::vector<Metric>& out) {
  scalla::net::TcpFabric fabric(basePort);
  ArrivalSink rx;
  ArrivalSink tx;
  scalla::sched::ThreadExecutor rxExec;
  if (!fabric.Register(2, &rx, &rxExec) || !fabric.Register(1, &tx, nullptr)) {
    Fatal("cannot bind the one-way microbenchmark ports at " + std::to_string(basePort + 1));
  }
  proto::XrdOpen small;
  small.path = ns.Path(7);
  proto::XrdReadResp big;
  FillContent(&big.data, kBlockBytes, ns.FileKey(1), 0, 0);
  const std::pair<const char*, proto::Message> messages[] = {{"net.one_way_us.small", small},
                                                            {"net.one_way_us.64k", big}};
  for (const auto& [name, message] : messages) {
    std::vector<double> samples;
    for (int i = 0; i < 1200; ++i) {
      proto::Message copy = message;
      rx.at = 0;
      const std::int64_t t0 = NowNs();
      fabric.Send(1, 2, std::move(copy));
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (rx.at.load() == 0) {
        if (std::chrono::steady_clock::now() > deadline) Fatal("one-way microbenchmark frame lost");
      }
      if (i >= 200) samples.push_back(static_cast<double>(rx.at.load() - t0) * 1e-3);
    }
    out.push_back({name, Median(samples), "us"});
  }
  fabric.Unregister(1);
  fabric.Unregister(2);
  rxExec.Stop();
}

void Pcache(const Namespace& ns, std::vector<Metric>& out) {
  scalla::pcache::TieredCacheConfig config;
  config.dram.capacityBytes = 8ull << 20;
  config.diskCapacityBytes = 64ull << 20;
  config.asyncTierOps = false;  // tier moves run inline, inside Lookup
  scalla::util::ManualClock clock;
  std::string block;
  FillContent(&block, kBlockBytes, ns.FileKey(3), 0, 0);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kReadFiles; ++i) paths.push_back(ns.Path(i));
  auto pathOf = [&](std::size_t i) -> const std::string& { return paths[i % kReadFiles]; };

  {
    scalla::oss::MemOss disk(clock);
    scalla::pcache::TieredBlockCache cache(config, &disk, nullptr, clock);
    constexpr std::size_t kHot = 64;  // well under the DRAM tier's 128 blocks
    for (int pass = 0; pass < 2; ++pass) {  // the second insert proves reuse
      for (std::size_t i = 0; i < kHot; ++i) cache.Insert(pathOf(i), i / kReadFiles, block);
    }
    out.push_back({"pcache.dram_lookup_ns", NsPerCall([&](std::size_t i) {
                     const std::size_t b = i % kHot;
                     const auto r = cache.LookupDetailed(pathOf(b), b / kReadFiles);
                     Keep(static_cast<std::uint64_t>(r.tier));
                   }),
                   "ns"});
  }
  {
    constexpr std::size_t kCold = 512;  // first-touch blocks land on disk
    std::unique_ptr<scalla::oss::MemOss> disk;
    std::unique_ptr<scalla::pcache::TieredBlockCache> cache;
    out.push_back({"pcache.disk_lookup_ns",
                   MedianOfFresh(
                       [&] {
                         cache.reset();
                         disk = std::make_unique<scalla::oss::MemOss>(clock);
                         cache = std::make_unique<scalla::pcache::TieredBlockCache>(
                             config, disk.get(), nullptr, clock);
                         for (std::size_t i = 0; i < kCold; ++i) {
                           cache->Insert(pathOf(i), i / kReadFiles, block);
                         }
                       },
                       [&] {
                         std::uint64_t diskHits = 0;
                         const std::int64_t t0 = NowNs();
                         for (std::size_t i = 0; i < kCold; ++i) {
                           const auto r = cache->LookupDetailed(pathOf(i), i / kReadFiles);
                           diskHits += r.tier == scalla::pcache::CacheTier::kDisk;
                         }
                         const double perCall = static_cast<double>(NowNs() - t0) / kCold;
                         Keep(diskHits);
                         return perCall;
                       }),
                   "ns"});
    cache.reset();
  }
}

void Obs(std::vector<Metric>& out) {
  constexpr int kRecords = 200'000;  // well under the histogram's sample cap
  const auto recordAll = [](scalla::obs::Histogram& h) {
    const std::int64_t t0 = NowNs();
    for (int i = 0; i < kRecords; ++i) h.RecordNanos(1000 + (i & 1023));
    return static_cast<double>(NowNs() - t0) / kRecords;
  };
  std::unique_ptr<scalla::obs::Histogram> h;
  out.push_back({"obs.record_ns",
                 MedianOfFresh([&] { h = std::make_unique<scalla::obs::Histogram>(); },
                               [&] { return recordAll(*h); }),
                 "ns"});
  // A stats reader snapshotting the histogram every millisecond, as a
  // StatsQuery storm would; Digest holds the lock Record takes.
  out.push_back({"obs.record_ns_contended",
                 MedianOfFresh([&] { h = std::make_unique<scalla::obs::Histogram>(); },
                               [&] {
                                 std::atomic<bool> stop{false};
                                 std::thread reader([&] {
                                   while (!stop.load()) {
                                     Keep(h->Digest().count);
                                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                                   }
                                 });
                                 const double perCall = recordAll(*h);
                                 stop = true;
                                 reader.join();
                                 return perCall;
                               }),
                 "ns"});
}

}  // namespace

std::vector<Metric> RunMicrobenchmarks(WorkloadKind kind, const Namespace& ns,
                                       std::uint16_t basePort) {
  std::vector<Metric> out;
  Proto(ns, out);
  Cms(kind, ns, out);
  Sched(out);
  Net(ns, basePort, out);
  Pcache(ns, out);
  Obs(out);
  return out;
}

}  // namespace perfbench
