// Asynchronous Scalla client: speaks the xrd protocol to a cluster head,
// following redirects down the tree, honouring wait/retry responses, and
// performing the paper's client recovery — on being vectored to a server
// that cannot serve the file it re-asks the head with a refresh request
// naming the failing host (section III-C1).
//
// The client is an actor on an executor (event-driven), so the same code
// runs under the discrete-event simulator and over real TCP; SyncClient
// wraps it with a blocking API for threaded use.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cms/types.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "sched/executor.h"
#include "util/rng.h"

namespace scalla::client {

struct ClientConfig {
  net::NodeAddr addr = 0;       // this client's fabric address
  net::NodeAddr head = 0;       // the cluster's logical head node
  // Redundant heads: "clients first contact the logical head node (which
  // can be one of many)". On losing the current head the client rotates
  // to the next and restarts affected requests there.
  std::vector<net::NodeAddr> extraHeads;
  net::NodeAddr cnsd = 0;       // Cluster Name Space daemon (0 = none)
  int maxRecoveries = 4;        // refresh/avoid cycles before giving up
  // Redirect-loop guard (config directive `client.maxredirects`): bounds
  // the TOTAL redirect hops one request may follow across all attempts.
  // Two heads pointing at each other (e.g. a meta-manager and a cluster
  // head with crossed caches) would otherwise ping-pong the client
  // forever; on breach the request fails with the distinct XrdErr::kLoop
  // instead of a generic I/O error. 8 comfortably covers the deepest
  // legitimate walk: meta -> cluster head -> supervisor chain -> server.
  int maxRedirects = 8;
  int maxWaits = 64;            // wait/retry cycles (staging can be long)
  // kStale answers are re-issued at the head after a short jittered delay
  // (never synchronously) and give up past the cap — a head stuck
  // answering stale must not spin the client forever.
  int maxStaleRetries = 8;
  Duration staleRetryDelay = std::chrono::milliseconds(2);
  // Per-attempt open timeout. A wedged server never answers and never
  // breaks the connection, so without this an open vectored at it would
  // hang forever; on expiry the open runs the same refresh/avoid recovery
  // as a connection loss. Zero disables the timer.
  Duration openTimeout = std::chrono::seconds(10);
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
  /// Connection-loss recovery: pending opens/stats/unlinks aimed at the
  /// dead node restart at the head (with avoid+refresh for opens, the
  /// paper's recovery idiom); pending I/O on it fails with kIo.
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
  struct OpenState {
    std::string path;
    cms::AccessMode mode;
    bool create = false;
    bool refresh = false;
    net::NodeAddr avoidNode = 0;
    net::NodeAddr currentNode = 0;
    OpenCallback done;
    OpenOutcome outcome;
    TimePoint start{};
    int staleRetries = 0;
    sched::TimerId timer = sched::kInvalidTimer;  // per-attempt timeout
  };
  struct StatState {
    std::string path;
    net::NodeAddr currentNode = 0;
    StatCallback done;
    int hops = 0;
    int waits = 0;
  };
  struct UnlinkState {
    std::string path;
    net::NodeAddr currentNode = 0;
    DoneCallback done;
    int hops = 0;
    int waits = 0;
    int recoveries = 0;
  };
  struct ChecksumState {
    std::string path;
    net::NodeAddr currentNode = 0;
    ChecksumCallback done;
    int hops = 0;
    int waits = 0;
  };
  struct StatsQueryState {
    StatsQueryCallback done;
    sched::TimerId timer = sched::kInvalidTimer;
  };

  void SendOpen(std::uint64_t reqId);
  void FinishOpen(std::uint64_t reqId, proto::XrdErr err, FileRef file);
  void CancelOpenTimer(OpenState& s);
  void OnOpenTimeout(std::uint64_t reqId);
  void HandleOpenResp(net::NodeAddr from, const proto::XrdOpenResp& m);
  void HandleStatResp(net::NodeAddr from, const proto::XrdStatResp& m);
  void HandleUnlinkResp(net::NodeAddr from, const proto::XrdUnlinkResp& m);
  void HandleChecksumResp(net::NodeAddr from, const proto::XrdChecksumResp& m);
  void HandleStatsReply(net::NodeAddr from, const proto::StatsReply& m);

  bool IsHead(net::NodeAddr addr) const;
  void RotateHeadAwayFrom(net::NodeAddr dead);

  ClientConfig config_;
  sched::Executor& executor_;
  net::Fabric& fabric_;
  std::vector<net::NodeAddr> heads_;
  std::size_t headIdx_ = 0;
  util::Rng rng_;  // stale-retry jitter (seeded per client for determinism)

  std::uint64_t nextReqId_ = 1;
  std::unordered_map<std::uint64_t, OpenState> opens_;
  std::unordered_map<std::uint64_t, StatState> stats_;
  std::unordered_map<std::uint64_t, UnlinkState> unlinks_;
  std::unordered_map<std::uint64_t, ReadCallback> reads_;
  std::unordered_map<std::uint64_t, ReadVCallback> readvs_;
  std::unordered_map<std::uint64_t, ChecksumState> checksums_;
  std::unordered_map<std::uint64_t, WriteCallback> writes_;
  std::unordered_map<std::uint64_t, DoneCallback> closes_;
  std::unordered_map<std::uint64_t, DoneCallback> prepares_;
  std::unordered_map<std::uint64_t, ListCallback> lists_;
  std::unordered_map<std::uint64_t, StatsQueryState> statsQueries_;
  std::unordered_map<std::uint64_t, CacheAdminCallback> cacheAdmins_;
  std::unordered_map<std::uint64_t, DrainCallback> drains_;

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
