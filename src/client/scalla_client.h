// Asynchronous Scalla client: speaks the xrd protocol to a cluster head.
// Every redirected request (open, stat, unlink, checksum) runs one walk:
// it follows redirects down the tree under a loop guard, honours wait and
// stale-retry responses, bounds each attempt with a timeout, and performs
// the paper's client recovery — on being vectored to a server that cannot
// serve the file it re-asks the head with a refresh request naming the
// failing host (section III-C1). Every pending request remembers the node
// its current attempt went to, so a dead peer strands none of them.
//
// The client is an actor on an executor (event-driven), so the same code
// runs under the discrete-event simulator and over real TCP; SyncClient
// wraps it with a blocking API for threaded use.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "cms/types.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "sched/executor.h"
#include "util/rng.h"

namespace scalla::client {

// The request walk's bounds (docs/PROTOCOL.md, "Client recovery rules").
// Every redirected request (open, stat, unlink, checksum) walks under them.
/// Refresh/avoid (or head-rotation) cycles before a walk gives up.
inline constexpr int kMaxRecoveries = 4;
/// Redirect-loop guard: bounds the TOTAL redirect hops one request may
/// follow across all its attempts. Two heads pointing at each other (e.g.
/// a meta-manager and a cluster head with crossed caches) would otherwise
/// ping-pong the client forever; on breach the request fails with the
/// distinct XrdErr::kLoop instead of a generic I/O error. 8 comfortably
/// covers the deepest legitimate walk: meta -> cluster head -> supervisor
/// chain -> server.
inline constexpr int kMaxRedirects = 8;
/// Wait/retry cycles (staging can be long).
inline constexpr int kMaxWaits = 64;
/// kStale answers are re-issued at the head after a jittered delay in
/// [kStaleRetryDelay, 2 x kStaleRetryDelay] (never synchronously) and give
/// up past the cap: a head stuck answering stale must not spin the client.
inline constexpr int kMaxStaleRetries = 8;
inline constexpr Duration kStaleRetryDelay = std::chrono::milliseconds(2);
/// Per-attempt timeout. A wedged node never answers and never breaks the
/// connection, so without it a walk vectored at one would hang forever; on
/// expiry the walk runs the same recovery as on a connection loss.
inline constexpr Duration kAttemptTimeout = std::chrono::seconds(10);

struct ClientConfig {
  net::NodeAddr addr = 0;       // this client's fabric address
  net::NodeAddr head = 0;       // the cluster's logical head node
  // Redundant heads: "clients first contact the logical head node (which
  // can be one of many)". On losing the current head the client rotates
  // to the next and restarts affected requests there.
  std::vector<net::NodeAddr> extraHeads;
  net::NodeAddr cnsd = 0;       // Cluster Name Space daemon (0 = none)
};

/// A successfully opened file: which node serves it and its handle there.
struct FileRef {
  net::NodeAddr node = 0;
  std::uint64_t handle = 0;
};

struct OpenOutcome {
  proto::XrdErr err = proto::XrdErr::kNone;
  FileRef file;
  int redirects = 0;   // hops followed
  int waits = 0;       // wait/retry cycles taken
  int recoveries = 0;  // refresh cycles taken
  Duration elapsed{};  // request start to completion
};

class ScallaClient : public net::MessageSink {
 public:
  ScallaClient(const ClientConfig& config, sched::Executor& executor, net::Fabric& fabric);

  const ClientConfig& config() const { return config_; }

  using OpenCallback = std::function<void(const OpenOutcome&)>;
  using ReadCallback = std::function<void(proto::XrdErr, std::string data)>;
  using WriteCallback = std::function<void(proto::XrdErr, std::uint32_t written)>;
  using DoneCallback = std::function<void(proto::XrdErr)>;
  using StatCallback = std::function<void(proto::XrdErr, std::uint64_t size)>;

  /// Opens `path` via the head node. With create=true a missing file is
  /// created on a server chosen by the head (after the full-delay
  /// non-existence check the paper describes).
  void Open(const std::string& path, cms::AccessMode mode, bool create, OpenCallback done);

  void Read(const FileRef& file, std::uint64_t offset, std::uint32_t length,
            ReadCallback done);

  using ReadVCallback = std::function<void(proto::XrdErr, std::vector<std::string>)>;
  /// Vector read: all segments in one round trip.
  void ReadV(const FileRef& file, std::vector<proto::ReadSeg> segments,
             ReadVCallback done);

  using ChecksumCallback = std::function<void(proto::XrdErr, std::uint32_t crc32)>;
  /// CRC32 of the file's content, computed by the data server holding it
  /// (follows redirects like any meta-data operation).
  void Checksum(const std::string& path, ChecksumCallback done);
  void Write(const FileRef& file, std::uint64_t offset, std::string data,
             WriteCallback done);
  void Close(const FileRef& file, DoneCallback done);
  void Stat(const std::string& path, StatCallback done);
  void Unlink(const std::string& path, DoneCallback done);

  /// Parallel prepare (section III-B2): announce upcoming accesses so the
  /// cluster warms its location cache / starts stages in parallel.
  void Prepare(const std::vector<std::string>& paths, cms::AccessMode mode,
               DoneCallback done);

  using ListCallback = std::function<void(proto::XrdErr, std::vector<std::string>)>;
  /// Global namespace listing via the Cluster Name Space daemon (managers
  /// do not implement ls — paper section II-B4). Requires config.cnsd.
  void List(const std::string& prefix, ListCallback done);

  /// Tree-aggregated cluster metrics: the head folds its whole subtree's
  /// snapshots into one (kStatsQuery/kStatsReply). ok=false means the head
  /// never answered within `timeout`.
  struct ClusterStats {
    bool ok = false;
    std::uint32_t nodeCount = 0;  // nodes folded into the snapshot
    obs::MetricsSnapshot snapshot;
  };
  using StatsQueryCallback = std::function<void(const ClusterStats&)>;
  void QueryStats(StatsQueryCallback done, Duration timeout = std::chrono::seconds(5));

  using CacheAdminCallback =
      std::function<void(proto::XrdErr, proto::PcacheAdminResp)>;
  /// Proxy cache administration aimed at the current head: occupancy query
  /// or purge. A non-proxy head answers kInvalid.
  void CacheAdmin(proto::PcacheAdminOp op, const std::string& path,
                  CacheAdminCallback done);

  using DrainCallback = std::function<void(proto::XrdErr, const proto::CmsDrainResp&)>;
  /// Operator drain: asks the head to take `server` (by cms name) out of
  /// selection while keeping it online; restore=true undoes it. The head
  /// fans the request down to supervisors when it does not know the name.
  void Drain(const std::string& server, bool restore, DrainCallback done);

  // net::MessageSink
  void OnMessage(net::NodeAddr from, proto::Message message) override;
  /// Connection loss: walks aimed at the dead node restart at the next
  /// head, or at the head with refresh+avoid (the paper's recovery idiom);
  /// stats queries move to a standby head; every other request aimed at
  /// it, and any walk or stats query with nowhere left to go, fails with
  /// kIo (a stats query with ok=false).
  void OnPeerDown(net::NodeAddr peer) override;

  /// Latency of completed Open calls (the redirection-latency metric the
  /// paper quotes: "<50us per tree level" once cached).
  const obs::Histogram& OpenLatency() const { return openLatency_; }

  /// The client's own instruments (retries, failovers, recoveries, open
  /// latency) — local counters, distinct from QueryStats' cluster view.
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot SnapshotMetrics() const { return metrics_.Snapshot(); }

  /// The head this client currently targets (changes on head failover).
  net::NodeAddr CurrentHead() const { return heads_[headIdx_]; }

 private:
  // What a pending request is. The first four are walks: redirected
  // requests that recover like an open.
  enum class Kind : std::uint8_t {
    kOpen, kStat, kUnlink, kChecksum,
    kRead, kReadV, kWrite, kClose, kPrepare, kList, kStatsQuery, kCacheAdmin, kDrain,
  };
  static bool IsWalk(Kind kind) { return kind <= Kind::kChecksum; }

  // The caller's callback, one alternative per distinct signature.
  using Callback = std::variant<OpenCallback, ReadCallback, ReadVCallback, WriteCallback,
                                DoneCallback, StatCallback, StatsQueryCallback,
                                CacheAdminCallback, DrainCallback>;

  // One pending request of any kind, keyed by its reqId.
  struct Pending {
    Kind kind = Kind::kOpen;
    net::NodeAddr node = 0;  // where the current attempt went
    Callback done;
    sched::TimerId timer = sched::kInvalidTimer;  // attempt timeout; a stats query's deadline
    // Walk state.
    std::string path;
    std::uint8_t mode = 0;  // wire AccessMode (opens)
    bool create = false;
    bool refresh = false;         // the next attempt asks the head for a refresh
    net::NodeAddr avoidNode = 0;  // the node the refresh names
    int redirects = 0;
    int waits = 0;
    int recoveries = 0;
    int staleRetries = 0;
    TimePoint start{};
  };
  using Table = std::unordered_map<std::uint64_t, Pending>;

  /// Enters a request aimed at `node` under a fresh reqId.
  Table::iterator Track(Kind kind, net::NodeAddr node, Callback done);
  void StartWalk(Kind kind, const std::string& path, Callback done, std::uint8_t mode = 0,
                 bool create = false);
  /// Sends a walk's next attempt and arms its timeout; re-sends a stats
  /// query (whose one deadline keeps running).
  void SendAttempt(std::uint64_t reqId);
  template <typename Resp>
  void OnWalkResp(net::NodeAddr from, const Resp& m, Kind kind);
  /// One recovery cycle after `failed` let the walk down; false once the
  /// cap is spent.
  bool Recover(Pending& p, net::NodeAddr failed);
  void OnTimeout(std::uint64_t reqId);
  void CancelTimer(Pending& p);
  /// Calls back request `reqId` with a reply's fields when it is of `kind`.
  template <typename Cb, typename... Args>
  void Complete(std::uint64_t reqId, Kind kind, Args&&... args);
  /// The single exit of every walk and of every failed request: removes
  /// it and calls back with `err` (on a walk's success, also the serving
  /// node and the result value).
  void Finish(std::uint64_t reqId, proto::XrdErr err, net::NodeAddr node = 0,
              std::uint64_t value = 0);

  bool IsHead(net::NodeAddr addr) const;
  void RotateHeadAwayFrom(net::NodeAddr dead);

  ClientConfig config_;
  sched::Executor& executor_;
  net::Fabric& fabric_;
  std::vector<net::NodeAddr> heads_;
  std::size_t headIdx_ = 0;
  util::Rng rng_;  // stale-retry jitter (seeded per client for determinism)

  std::uint64_t nextReqId_ = 1;
  Table pending_;

  // Registry first: the instrument references below point into it.
  obs::MetricsRegistry metrics_;
  obs::Histogram& openLatency_;   // client.open_latency
  obs::Counter& retriesMetric_;   // client.retries — wait/stale re-issues
  obs::Counter& failoversMetric_; // client.head_failovers
  obs::Counter& recoveriesMetric_;  // client.recoveries — refresh/avoid cycles
  obs::Counter& redirectsMetric_;   // client.redirects_followed
  obs::Counter& loopBreaksMetric_;  // client.redirect_loop_breaks — kLoop failures
};

}  // namespace scalla::client
