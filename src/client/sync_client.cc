#include "client/sync_client.h"

#include <future>

namespace scalla::client {
namespace {

ScallaError MakeError(proto::XrdErr err, const char* op, const std::string& subject) {
  return ScallaError{err, std::string(op) + " '" + subject + "': " + XrdErrName(err)};
}

}  // namespace

SyncClient::SyncClient(const ClientConfig& config, sched::Executor& executor,
                       net::Fabric& fabric, Duration timeout)
    : executor_(executor), inner_(config, executor, fabric), timeout_(timeout) {}

template <typename T, typename Start>
T SyncClient::Call(T timedOut, Start start, Duration extraWait) {
  // The shared_ptr keeps the promise alive if the callback outlives an
  // abandoned wait.
  auto prom = std::make_shared<std::promise<T>>();
  auto fut = prom->get_future();
  executor_.Post([start = std::move(start), prom]() mutable {
    start([prom](auto&&... args) { prom->set_value(T{std::forward<decltype(args)>(args)...}); });
  });
  if (fut.wait_for(timeout_ + extraWait) != std::future_status::ready) return timedOut;
  return fut.get();
}

OpenOutcome SyncClient::Open(const std::string& path, cms::AccessMode mode, bool create) {
  OpenOutcome timedOut;
  timedOut.err = proto::XrdErr::kIo;
  return Call(timedOut, [this, path, mode, create](auto done) {
    inner_.Open(path, mode, create, std::move(done));
  });
}

Result<std::string> SyncClient::Read(const FileRef& file, std::uint64_t offset,
                                     std::uint32_t length) {
  auto [err, data] = Call(std::pair{proto::XrdErr::kIo, std::string()},
                          [this, file, offset, length](auto done) {
                            inner_.Read(file, offset, length, std::move(done));
                          });
  if (err != proto::XrdErr::kNone) return MakeError(err, "read", "handle");
  return std::move(data);
}

Result<std::vector<std::string>> SyncClient::ReadV(
    const FileRef& file, const std::vector<proto::ReadSeg>& segments) {
  auto [err, chunks] = Call(std::pair{proto::XrdErr::kIo, std::vector<std::string>()},
                            [this, file, segments](auto done) mutable {
                              inner_.ReadV(file, std::move(segments), std::move(done));
                            });
  if (err != proto::XrdErr::kNone) return MakeError(err, "readv", "handle");
  return std::move(chunks);
}

Result<std::uint32_t> SyncClient::Checksum(const std::string& path) {
  const auto [err, crc] = Call(std::pair{proto::XrdErr::kIo, std::uint32_t{0}},
                               [this, path](auto done) { inner_.Checksum(path, std::move(done)); });
  if (err != proto::XrdErr::kNone) return MakeError(err, "checksum", path);
  return crc;
}

Result<std::uint32_t> SyncClient::Write(const FileRef& file, std::uint64_t offset,
                                        std::string data) {
  const auto [err, n] = Call(std::pair{proto::XrdErr::kIo, std::uint32_t{0}},
                             [this, file, offset, data = std::move(data)](auto done) mutable {
                               inner_.Write(file, offset, std::move(data), std::move(done));
                             });
  if (err != proto::XrdErr::kNone) return MakeError(err, "write", "handle");
  return n;
}

Result<void> SyncClient::Close(const FileRef& file) {
  const proto::XrdErr err = Call(proto::XrdErr::kIo, [this, file](auto done) {
    inner_.Close(file, std::move(done));
  });
  if (err != proto::XrdErr::kNone) return MakeError(err, "close", "handle");
  return Result<void>::Ok();
}

Result<std::uint64_t> SyncClient::Stat(const std::string& path) {
  const auto [err, size] = Call(std::pair{proto::XrdErr::kIo, std::uint64_t{0}},
                                [this, path](auto done) { inner_.Stat(path, std::move(done)); });
  if (err != proto::XrdErr::kNone) return MakeError(err, "stat", path);
  return size;
}

Result<void> SyncClient::Unlink(const std::string& path) {
  const proto::XrdErr err = Call(proto::XrdErr::kIo, [this, path](auto done) {
    inner_.Unlink(path, std::move(done));
  });
  if (err != proto::XrdErr::kNone) return MakeError(err, "unlink", path);
  return Result<void>::Ok();
}

Result<void> SyncClient::Prepare(const std::vector<std::string>& paths,
                                 cms::AccessMode mode) {
  const proto::XrdErr err = Call(proto::XrdErr::kIo, [this, paths, mode](auto done) {
    inner_.Prepare(paths, mode, std::move(done));
  });
  if (err != proto::XrdErr::kNone) return MakeError(err, "prepare", "batch");
  return Result<void>::Ok();
}

Result<void> SyncClient::PutFile(const std::string& path, std::string data) {
  const OpenOutcome open = Open(path, cms::AccessMode::kWrite, /*create=*/true);
  if (open.err != proto::XrdErr::kNone) return MakeError(open.err, "open", path);
  const auto written = Write(open.file, 0, std::move(data));
  const auto closed = Close(open.file);
  if (!written) return written.error();
  if (!closed) return closed.error();
  return Result<void>::Ok();
}

Result<std::string> SyncClient::GetFile(const std::string& path) {
  const OpenOutcome open = Open(path, cms::AccessMode::kRead, /*create=*/false);
  if (open.err != proto::XrdErr::kNone) return MakeError(open.err, "open", path);
  std::string all;
  std::uint64_t offset = 0;
  for (;;) {
    auto chunk = Read(open.file, offset, 1 << 16);
    if (!chunk) {
      (void)Close(open.file);
      return chunk.error();
    }
    if (chunk.value().empty()) break;
    offset += chunk.value().size();
    all += std::move(chunk).value();
  }
  (void)Close(open.file);
  return all;
}

Result<ScallaClient::ClusterStats> SyncClient::Stats() {
  // The inner query times out on its own; pad the blocking wait a little so
  // the ok=false outcome (rather than a promise abandonment) surfaces.
  ScallaClient::ClusterStats stats = Call(
      ScallaClient::ClusterStats{},
      [this](auto done) { inner_.QueryStats(std::move(done), timeout_); },
      std::chrono::seconds(1));
  if (!stats.ok) return MakeError(proto::XrdErr::kIo, "stats", "cluster");
  return stats;
}

Result<proto::PcacheAdminResp> SyncClient::CacheAdmin(proto::PcacheAdminOp op,
                                                      const std::string& path) {
  auto [err, resp] = Call(std::pair{proto::XrdErr::kIo, proto::PcacheAdminResp{}},
                          [this, op, path](auto done) {
                            inner_.CacheAdmin(op, path, std::move(done));
                          });
  if (err != proto::XrdErr::kNone) return MakeError(err, "cache-admin", path);
  return resp;
}

Result<proto::CmsDrainResp> SyncClient::Drain(const std::string& server, bool restore) {
  auto [err, resp] = Call(std::pair{proto::XrdErr::kIo, proto::CmsDrainResp{}},
                          [this, server, restore](auto done) {
                            inner_.Drain(server, restore, std::move(done));
                          });
  if (err != proto::XrdErr::kNone) {
    return ScallaError{err, "drain '" + server + "': " +
                                (resp.error.empty() ? XrdErrName(err) : resp.error)};
  }
  return resp;
}

}  // namespace scalla::client
