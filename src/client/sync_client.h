// Blocking facade over ScallaClient for threaded (real-time) use: each
// call posts the asynchronous operation onto the client's executor and
// waits for its completion. Intended for application code and the TCP
// integration tests; simulation code drives ScallaClient directly.
//
// Every operation returns scalla::Result<T>: test `if (r)` for success,
// then r.value(); on failure r.error() carries the protocol code plus a
// message naming the operation and path.
#pragma once

#include <memory>

#include "client/scalla_client.h"
#include "util/result.h"

namespace scalla::client {

class SyncClient {
 public:
  /// `executor` must be a real-time executor (e.g. sched::ThreadExecutor)
  /// distinct from the calling thread, or every call would deadlock.
  SyncClient(const ClientConfig& config, sched::Executor& executor, net::Fabric& fabric,
             Duration timeout = std::chrono::seconds(60));

  ScallaClient& async() { return inner_; }

  OpenOutcome Open(const std::string& path, cms::AccessMode mode, bool create = false);
  Result<std::string> Read(const FileRef& file, std::uint64_t offset,
                           std::uint32_t length);
  Result<std::vector<std::string>> ReadV(const FileRef& file,
                                         const std::vector<proto::ReadSeg>& segments);
  Result<std::uint32_t> Checksum(const std::string& path);
  Result<std::uint32_t> Write(const FileRef& file, std::uint64_t offset,
                              std::string data);
  Result<void> Close(const FileRef& file);
  Result<std::uint64_t> Stat(const std::string& path);
  Result<void> Unlink(const std::string& path);
  Result<void> Prepare(const std::vector<std::string>& paths, cms::AccessMode mode);

  /// Convenience: full write of a small file (open-create, write, close).
  Result<void> PutFile(const std::string& path, std::string data);
  /// Convenience: full read of a small file.
  Result<std::string> GetFile(const std::string& path);

  /// Tree-aggregated cluster metrics from the head (kStatsQuery).
  Result<ScallaClient::ClusterStats> Stats();

  /// Proxy cache administration (kPcacheAdmin): purge/occupancy against a
  /// pcache head. Non-proxy nodes answer kInvalid.
  Result<proto::PcacheAdminResp> CacheAdmin(proto::PcacheAdminOp op,
                                            const std::string& path = {});

  /// Operator drain/restore of a named server via the head (kCmsDrain).
  Result<proto::CmsDrainResp> Drain(const std::string& server, bool restore = false);

 private:
  /// Posts `start(callback)` onto the client's executor and blocks until
  /// the callback delivers its arguments as a T, or until the timeout (plus
  /// `extraWait`) passes, which returns `timedOut`.
  template <typename T, typename Start>
  T Call(T timedOut, Start start, Duration extraWait = Duration::zero());

  sched::Executor& executor_;
  ScallaClient inner_;
  Duration timeout_;
};

}  // namespace scalla::client
