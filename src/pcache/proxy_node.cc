#include "pcache/proxy_node.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace scalla::pcache {

namespace {

client::ClientConfig OriginConfig(const ProxyCacheConfig& config) {
  client::ClientConfig origin = config.origin;
  origin.addr = config.addr;  // proxy and embedded client share one address
  return origin;
}

TieredCacheConfig TieredConfig(const ProxyCacheConfig& config) {
  TieredCacheConfig tiered;
  tiered.dram = config.cache;
  tiered.diskCapacityBytes = config.diskOss != nullptr ? config.diskCapacityBytes : 0;
  tiered.diskHighWatermark = config.diskHighWatermark;
  tiered.diskLowWatermark = config.diskLowWatermark;
  tiered.ghostEntries = config.ghostEntries;
  return tiered;
}

}  // namespace

ProxyCacheNode::ProxyCacheNode(const ProxyCacheConfig& config,
                               sched::Executor& executor, net::Fabric& fabric)
    : config_(config),
      executor_(executor),
      fabric_(fabric),
      cache_(TieredConfig(config), config.diskOss, executor.clock()),
      origin_(OriginConfig(config), executor, fabric),
      stats_(config.addr, executor, fabric),
      opensLocal_(metrics_.GetCounter("pcache.opens_local")),
      originOpens_(metrics_.GetCounter("pcache.origin_opens")),
      originFetches_(metrics_.GetCounter("pcache.origin_fetches")),
      bytesFromCache_(metrics_.GetCounter("pcache.bytes_from_cache")),
      bytesFromDisk_(metrics_.GetCounter("pcache.bytes_from_disk")),
      bytesFromOrigin_(metrics_.GetCounter("pcache.bytes_from_origin")),
      readAheads_(metrics_.GetCounter("pcache.readaheads")),
      readsLocal_(metrics_.GetCounter("pcache.reads_local")),
      readsWithMiss_(metrics_.GetCounter("pcache.reads_with_miss")),
      readLatency_(metrics_.GetHistogram("pcache.read_latency")) {
  config_.origin.addr = config_.addr;
}

void ProxyCacheNode::OnMessage(net::NodeAddr from, proto::Message message) {
  std::visit(
      [&](auto&& m) {
        using M = std::decay_t<decltype(m)>;
        // Requests a client aims at the proxy.
        if constexpr (std::is_same_v<M, proto::XrdOpen>) {
          HandleOpen(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdRead>) {
          HandleRead(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdReadV>) {
          HandleReadV(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdClose>) {
          HandleClose(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdStat>) {
          HandleStat(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdUnlink>) {
          HandleUnlink(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdChecksum>) {
          HandleChecksum(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdPrepare>) {
          HandlePrepare(from, m);
        } else if constexpr (std::is_same_v<M, proto::StatsQuery>) {
          // The origin's current head answers for the cluster behind it.
          stats_.OnQuery(from, m.reqId, SnapshotMetrics(), {origin_.CurrentHead()});
        } else if constexpr (std::is_same_v<M, proto::StatsReply>) {
          if (from == origin_.CurrentHead()) stats_.OnReply(m);
        } else if constexpr (std::is_same_v<M, proto::PcacheAdmin>) {
          HandlePcacheAdmin(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdWrite>) {
          proto::XrdWriteResp resp;
          resp.reqId = m.reqId;
          resp.err = proto::XrdErr::kInvalid;  // the proxy tier is read-only
          fabric_.Send(config_.addr, from, std::move(resp));
        } else if constexpr (std::is_same_v<M, proto::XrdOpenResp> ||
                             std::is_same_v<M, proto::XrdReadResp> ||
                             std::is_same_v<M, proto::XrdReadVResp> ||
                             std::is_same_v<M, proto::XrdWriteResp> ||
                             std::is_same_v<M, proto::XrdCloseResp> ||
                             std::is_same_v<M, proto::XrdStatResp> ||
                             std::is_same_v<M, proto::XrdUnlinkResp> ||
                             std::is_same_v<M, proto::XrdPrepareResp> ||
                             std::is_same_v<M, proto::XrdChecksumResp> ||
                             std::is_same_v<M, proto::CnsListResp>) {
          // Origin-side responses belong to the embedded client.
          origin_.OnMessage(from, std::forward<decltype(m)>(m));
        }
        // Everything else (cms frames, stray PcacheAdminResp) is ignored;
        // the proxy is not a cluster member.
      },
      std::move(message));
}

void ProxyCacheNode::OnPeerDown(net::NodeAddr peer) {
  origin_.OnPeerDown(peer);
  for (auto& [path, session] : sessions_) {
    if (session.originOpen && session.origin.node == peer) {
      // Keep the session (size and cached blocks stay valid); the next
      // miss re-opens at the head with the usual recovery machinery.
      session.originOpen = false;
    }
  }
}

// ------------------------------------------------------------- open path

void ProxyCacheNode::HandleOpen(net::NodeAddr from, const proto::XrdOpen& m) {
  proto::XrdOpenResp resp;
  resp.reqId = m.reqId;
  if (m.create || m.mode == static_cast<std::uint8_t>(cms::AccessMode::kWrite)) {
    resp.status = proto::XrdStatus::kError;
    resp.err = proto::XrdErr::kInvalid;
    resp.message = "pcache proxy is read-only";
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  FileSession& session = sessions_[m.path];
  if (session.validated) {
    // Warm open: the path is known good; answer without cluster traffic.
    const std::uint64_t handle = nextHandle_++;
    handles_[handle] = m.path;
    ++session.refs;
    opensLocal_.Inc();
    resp.status = proto::XrdStatus::kOk;
    resp.fileHandle = handle;
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  const std::string path = m.path;
  const std::uint64_t reqId = m.reqId;
  session.awaitingOrigin.push_back([this, from, reqId, path](proto::XrdErr err) {
    proto::XrdOpenResp r;
    r.reqId = reqId;
    if (err == proto::XrdErr::kNone) {
      const std::uint64_t handle = nextHandle_++;
      handles_[handle] = path;
      ++sessions_[path].refs;
      r.status = proto::XrdStatus::kOk;
      r.fileHandle = handle;
    } else {
      r.status = proto::XrdStatus::kError;
      r.err = err;
    }
    fabric_.Send(config_.addr, from, std::move(r));
  });
  EnsureOriginOpen(path);
}

void ProxyCacheNode::EnsureOriginOpen(const std::string& path) {
  FileSession& session = sessions_[path];
  if (session.opening) return;
  session.opening = true;
  originOpens_.Inc();
  origin_.Open(path, cms::AccessMode::kRead, /*create=*/false,
               [this, path](const client::OpenOutcome& outcome) {
                 OnOriginOpen(path, outcome);
               });
}

void ProxyCacheNode::OnOriginOpen(const std::string& path,
                                  const client::OpenOutcome& outcome) {
  const auto it = sessions_.find(path);
  if (it == sessions_.end()) return;  // purged while the open was in flight
  FileSession& session = it->second;
  if (outcome.err != proto::XrdErr::kNone) {
    session.opening = false;
    FlushAwaiting(path, outcome.err);
    return;
  }
  session.origin = outcome.file;
  session.originOpen = true;
  if (session.validated) {
    // Re-open after the origin server died: the learned size and cached
    // blocks are still good, so admit the parked work immediately.
    session.opening = false;
    FlushAwaiting(path, proto::XrdErr::kNone);
    return;
  }
  // First contact: learn the size (one stat) before admitting readers, so
  // every range is clamped to EOF and a cold read of a small file never
  // sprays fetches across the whole requested window. `opening` stays set
  // so new opens keep parking instead of re-issuing.
  origin_.Stat(path, [this, path](proto::XrdErr err, std::uint64_t size) {
    const auto sit = sessions_.find(path);
    if (sit == sessions_.end()) return;
    sit->second.opening = false;
    sit->second.validated = true;  // the open itself succeeded
    if (err == proto::XrdErr::kNone) LearnSize(path, size);
    FlushAwaiting(path, proto::XrdErr::kNone);
  });
}

void ProxyCacheNode::FlushAwaiting(const std::string& path, proto::XrdErr err) {
  auto it = sessions_.find(path);
  if (it == sessions_.end()) return;
  std::vector<std::function<void(proto::XrdErr)>> waiters;
  waiters.swap(it->second.awaitingOrigin);
  for (const auto& w : waiters) w(err);
  // Re-check: a waiter may have touched the map (e.g. a fetch re-queued
  // behind a fresh open attempt after a failure).
  it = sessions_.find(path);
  if (it != sessions_.end() && !it->second.validated && it->second.refs == 0 &&
      it->second.awaitingOrigin.empty() && !it->second.opening) {
    sessions_.erase(it);
  }
}

// ------------------------------------------------------------- read path

void ProxyCacheNode::HandleRead(net::NodeAddr from, const proto::XrdRead& m) {
  const auto it = handles_.find(m.fileHandle);
  if (it == handles_.end()) {
    proto::XrdReadResp resp;
    resp.reqId = m.reqId;
    resp.err = proto::XrdErr::kInvalid;
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  readsLocal_.Inc();
  const TimePoint start = executor_.clock().Now();
  const std::uint64_t reqId = m.reqId;
  GatherRange(it->second, m.offset, m.length,
              [this, from, reqId, start](proto::XrdErr err, std::string data) {
                readLatency_.Record(executor_.clock().Now() - start);
                proto::XrdReadResp resp;
                resp.reqId = reqId;
                resp.err = err;
                resp.data = std::move(data);
                fabric_.Send(config_.addr, from, std::move(resp));
              });
}

void ProxyCacheNode::HandleReadV(net::NodeAddr from, const proto::XrdReadV& m) {
  proto::XrdReadVResp resp;
  resp.reqId = m.reqId;
  const auto it = handles_.find(m.fileHandle);
  if (it == handles_.end()) {
    resp.err = proto::XrdErr::kInvalid;
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  if (m.segments.empty()) {
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  readsLocal_.Inc();
  // Each segment gathers independently; the last one to land replies.
  struct VectorRead {
    std::uint64_t reqId = 0;
    net::NodeAddr from = 0;
    std::vector<std::string> chunks;
    std::size_t outstanding = 0;
    proto::XrdErr err = proto::XrdErr::kNone;
  };
  auto state = std::make_shared<VectorRead>();
  state->reqId = m.reqId;
  state->from = from;
  state->chunks.resize(m.segments.size());
  state->outstanding = m.segments.size();
  const std::string& path = it->second;
  for (std::size_t i = 0; i < m.segments.size(); ++i) {
    GatherRange(path, m.segments[i].offset, m.segments[i].length,
                [this, state, i](proto::XrdErr err, std::string data) {
                  if (err != proto::XrdErr::kNone && state->err == proto::XrdErr::kNone) {
                    state->err = err;
                  }
                  state->chunks[i] = std::move(data);
                  if (--state->outstanding > 0) return;
                  proto::XrdReadVResp r;
                  r.reqId = state->reqId;
                  r.err = state->err;
                  if (state->err == proto::XrdErr::kNone) {
                    r.chunks = std::move(state->chunks);
                  }
                  fabric_.Send(config_.addr, state->from, std::move(r));
                });
  }
}

void ProxyCacheNode::GatherRange(const std::string& path, std::uint64_t offset,
                                 std::uint32_t length,
                                 std::function<void(proto::XrdErr, std::string)> done) {
  const std::uint32_t bs = cache_.BlockSize();
  const auto sessionIt = sessions_.find(path);
  if (sessionIt == sessions_.end() || !sessionIt->second.validated) {
    done(proto::XrdErr::kInvalid, {});
    return;
  }
  std::uint64_t end = offset + length;
  const std::uint64_t knownSize = sessionIt->second.knownSize;
  if (knownSize != kUnknownSize) end = std::min(end, knownSize);
  if (end <= offset || length == 0) {
    done(proto::XrdErr::kNone, {});  // at/past EOF
    return;
  }
  const std::uint64_t first = offset / bs;
  const std::uint64_t last = (end - 1) / bs;

  const std::uint64_t rangeId = nextRangeId_++;
  PendingRange& range = ranges_[rangeId];
  range.path = path;
  range.offset = offset;
  range.end = end;
  range.firstBlock = first;
  range.blocks.resize(static_cast<std::size_t>(last - first + 1));
  range.outstanding = static_cast<int>(range.blocks.size());
  range.done = std::move(done);

  bool missed = false;
  for (std::uint64_t idx = first; idx <= last; ++idx) {
    TieredBlockCache::LookupResult hit = cache_.LookupDetailed(path, idx);
    if (hit.data.has_value()) {
      bytesFromCache_.Inc(hit.data->size());
      if (hit.tier == CacheTier::kDisk) bytesFromDisk_.Inc(hit.data->size());
      range.blocks[static_cast<std::size_t>(idx - first)] = std::move(*hit.data);
      --range.outstanding;
      continue;
    }
    missed = true;
    const bool owner = singleFlight_.Begin(
        path, idx, [this, rangeId, idx](proto::XrdErr err, std::string data) {
          OnBlockReady(rangeId, idx, err, std::move(data));
        });
    if (owner) StartFetch(path, idx, /*demand=*/true);
  }
  if (missed) readsWithMiss_.Inc();
  if (ranges_.at(rangeId).outstanding == 0) FinishRange(rangeId);
}

void ProxyCacheNode::OnBlockReady(std::uint64_t rangeId, std::uint64_t blockIdx,
                                  proto::XrdErr err, std::string data) {
  const auto it = ranges_.find(rangeId);
  if (it == ranges_.end()) return;
  PendingRange& range = it->second;
  if (err != proto::XrdErr::kNone && range.err == proto::XrdErr::kNone) range.err = err;
  range.blocks[static_cast<std::size_t>(blockIdx - range.firstBlock)] = std::move(data);
  if (--range.outstanding == 0) FinishRange(rangeId);
}

void ProxyCacheNode::FinishRange(std::uint64_t rangeId) {
  auto node = ranges_.extract(rangeId);
  PendingRange& range = node.mapped();
  if (range.err != proto::XrdErr::kNone) {
    range.done(range.err, {});
    return;
  }
  const std::uint32_t bs = cache_.BlockSize();
  if (range.blocks.size() == 1 && range.offset == range.firstBlock * bs) {
    // A range that starts a block and ends inside it (every block-aligned
    // read of one block) is that block's prefix: reply with the block
    // itself instead of copying it.
    std::string& block = range.blocks.front();
    block.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(block.size(), range.end - range.offset)));
    range.done(proto::XrdErr::kNone, std::move(block));
    return;
  }
  std::string out;
  out.reserve(static_cast<std::size_t>(range.end - range.offset));
  for (std::size_t i = 0; i < range.blocks.size(); ++i) {
    const std::string& block = range.blocks[i];
    const std::uint64_t blockStart = (range.firstBlock + i) * bs;
    const std::uint64_t segStart = std::max(range.offset, blockStart);
    const std::uint64_t segEnd = std::min(range.end, blockStart + block.size());
    if (segEnd > segStart) {
      out.append(block, static_cast<std::size_t>(segStart - blockStart),
                 static_cast<std::size_t>(segEnd - segStart));
    }
    if (block.size() < bs) break;  // EOF inside this block
  }
  range.done(proto::XrdErr::kNone, std::move(out));
}

// ------------------------------------------------------------ fetch path

void ProxyCacheNode::StartFetch(const std::string& path, std::uint64_t index,
                                bool demand) {
  FileSession& session = sessions_[path];
  if (!session.originOpen) {
    // Origin handle missing (first touch, or origin server died): park the
    // fetch behind an origin open.
    session.awaitingOrigin.push_back([this, path, index, demand](proto::XrdErr err) {
      if (err != proto::XrdErr::kNone) {
        singleFlight_.Complete(path, index, err, {});
        return;
      }
      DoFetch(path, index, demand);
    });
    EnsureOriginOpen(path);
    return;
  }
  DoFetch(path, index, demand);
}

void ProxyCacheNode::DoFetch(const std::string& path, std::uint64_t index, bool demand) {
  const std::uint32_t bs = cache_.BlockSize();
  originFetches_.Inc();
  origin_.Read(sessions_[path].origin, index * bs, bs,
               [this, path, index, demand](proto::XrdErr err, std::string data) {
                 OnFetchDone(path, index, demand, err, std::move(data));
               });
}

void ProxyCacheNode::OnFetchDone(const std::string& path, std::uint64_t index,
                                 bool demand, proto::XrdErr err, std::string data) {
  const std::uint32_t bs = cache_.BlockSize();
  if (err != proto::XrdErr::kNone) {
    singleFlight_.Complete(path, index, err, {});
    return;
  }
  bytesFromOrigin_.Inc(data.size());
  const bool fullBlock = data.size() == bs;
  if (!fullBlock) LearnSize(path, index * bs + data.size());
  // The cache gets the one copy of the fetched block; the waiting read
  // gets the buffer itself. Pin across Complete so the insert's own
  // eviction sweep (and any insert a waiter triggers) cannot victimize
  // this block first.
  const bool cached = !data.empty();
  if (cached) cache_.Insert(path, index, data, /*pinned=*/true);
  singleFlight_.Complete(path, index, proto::XrdErr::kNone, std::move(data));
  if (cached) cache_.Unpin(path, index);
  if (demand && fullBlock && config_.readAhead > 0) {
    StartReadAhead(path, index + 1);
  }
}

void ProxyCacheNode::StartReadAhead(const std::string& path, std::uint64_t fromIndex) {
  const std::uint32_t bs = cache_.BlockSize();
  const auto it = sessions_.find(path);
  if (it == sessions_.end()) return;
  const std::uint64_t knownSize = it->second.knownSize;
  for (int k = 0; k < config_.readAhead; ++k) {
    const std::uint64_t idx = fromIndex + static_cast<std::uint64_t>(k);
    if (knownSize != kUnknownSize && idx * bs >= knownSize) break;
    if (cache_.Contains(path, idx)) continue;
    if (!singleFlight_.TryOwn(path, idx)) continue;  // demand fetch already racing
    readAheads_.Inc();
    StartFetch(path, idx, /*demand=*/false);
  }
}

void ProxyCacheNode::LearnSize(const std::string& path, std::uint64_t size) {
  const auto it = sessions_.find(path);
  if (it == sessions_.end()) return;
  if (it->second.knownSize == kUnknownSize || size < it->second.knownSize) {
    it->second.knownSize = size;
  }
}

// ------------------------------------------------------- metadata + admin

void ProxyCacheNode::HandleClose(net::NodeAddr from, const proto::XrdClose& m) {
  proto::XrdCloseResp resp;
  resp.reqId = m.reqId;
  const auto it = handles_.find(m.fileHandle);
  if (it == handles_.end()) {
    resp.err = proto::XrdErr::kInvalid;
  } else {
    const auto sessionIt = sessions_.find(it->second);
    if (sessionIt != sessions_.end() && sessionIt->second.refs > 0) {
      --sessionIt->second.refs;
    }
    // The origin handle stays open: the session is the proxy's metadata
    // cache, so the next open on this path is warm.
    handles_.erase(it);
  }
  fabric_.Send(config_.addr, from, std::move(resp));
}

void ProxyCacheNode::HandleStat(net::NodeAddr from, const proto::XrdStat& m) {
  const auto it = sessions_.find(m.path);
  if (it != sessions_.end() && it->second.knownSize != kUnknownSize) {
    proto::XrdStatResp resp;
    resp.reqId = m.reqId;
    resp.status = proto::XrdStatus::kOk;
    resp.size = it->second.knownSize;
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  const std::uint64_t reqId = m.reqId;
  const std::string path = m.path;
  origin_.Stat(path, [this, from, reqId, path](proto::XrdErr err, std::uint64_t size) {
    if (err == proto::XrdErr::kNone) LearnSize(path, size);
    proto::XrdStatResp resp;
    resp.reqId = reqId;
    resp.status = err == proto::XrdErr::kNone ? proto::XrdStatus::kOk
                                              : proto::XrdStatus::kError;
    resp.err = err;
    resp.size = size;
    fabric_.Send(config_.addr, from, std::move(resp));
  });
}

void ProxyCacheNode::HandleUnlink(net::NodeAddr from, const proto::XrdUnlink& m) {
  const std::uint64_t reqId = m.reqId;
  const std::string path = m.path;
  origin_.Unlink(path, [this, from, reqId, path](proto::XrdErr err) {
    if (err == proto::XrdErr::kNone) {
      (void)cache_.Purge(path);
      const auto it = sessions_.find(path);
      if (it != sessions_.end()) {
        // Nothing reads through the origin handle again: release it at the leaf.
        if (it->second.originOpen) origin_.Close(it->second.origin, [](proto::XrdErr) {});
        // Opens and fetches parked behind a first-contact origin open learn
        // now that the file is gone; that open's late answer finds no session.
        FlushAwaiting(path, proto::XrdErr::kNotFound);
        sessions_.erase(path);  // stale handles on it now answer kInvalid
      }
    }
    proto::XrdUnlinkResp resp;
    resp.reqId = reqId;
    resp.status = err == proto::XrdErr::kNone ? proto::XrdStatus::kOk
                                              : proto::XrdStatus::kError;
    resp.err = err;
    fabric_.Send(config_.addr, from, std::move(resp));
  });
}

void ProxyCacheNode::HandleChecksum(net::NodeAddr from, const proto::XrdChecksum& m) {
  const std::uint64_t reqId = m.reqId;
  origin_.Checksum(m.path, [this, from, reqId](proto::XrdErr err, std::uint32_t crc) {
    proto::XrdChecksumResp resp;
    resp.reqId = reqId;
    resp.status = err == proto::XrdErr::kNone ? proto::XrdStatus::kOk
                                              : proto::XrdStatus::kError;
    resp.err = err;
    resp.crc32 = crc;
    fabric_.Send(config_.addr, from, std::move(resp));
  });
}

void ProxyCacheNode::HandlePrepare(net::NodeAddr from, const proto::XrdPrepare& m) {
  const std::uint64_t reqId = m.reqId;
  const auto mode = static_cast<cms::AccessMode>(m.mode);
  origin_.Prepare(m.paths, mode, [this, from, reqId](proto::XrdErr err) {
    proto::XrdPrepareResp resp;
    resp.reqId = reqId;
    resp.err = err;
    fabric_.Send(config_.addr, from, std::move(resp));
  });
}

void ProxyCacheNode::HandlePcacheAdmin(net::NodeAddr from, const proto::PcacheAdmin& m) {
  proto::PcacheAdminResp resp;
  resp.reqId = m.reqId;
  switch (m.op) {
    case proto::PcacheAdminOp::kStat:
      break;
    case proto::PcacheAdminOp::kPurgePath:
      resp.blocksPurged = cache_.Purge(m.path);
      break;
    case proto::PcacheAdminOp::kPurgeAll:
      resp.blocksPurged = cache_.PurgeAll();
      break;
  }
  const TieredCacheStats stats = cache_.GetTieredStats();
  resp.usedBytes = stats.dram.usedBytes + stats.diskUsedBytes;
  resp.blockCount = stats.dram.blockCount + stats.diskBlockCount;
  resp.dramUsedBytes = stats.dram.usedBytes;
  resp.dramBlockCount = stats.dram.blockCount;
  resp.diskUsedBytes = stats.diskUsedBytes;
  resp.diskBlockCount = stats.diskBlockCount;
  fabric_.Send(config_.addr, from, std::move(resp));
}

obs::MetricsSnapshot ProxyCacheNode::SnapshotMetrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  cache_.ExportMetrics(snap);
  snap.AddCounter("pcache.coalesced", singleFlight_.Coalesced());
  // The embedded client's instruments show the proxy's cluster-facing
  // behaviour (redirects followed, recoveries, open latency).
  snap.Merge(origin_.SnapshotMetrics());
  snap.AddCounter("node.count", 1);
  return snap;
}

}  // namespace scalla::pcache
