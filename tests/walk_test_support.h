// Shared support for tests that drive the client's request walk: the four
// redirected request kinds (open, stat, unlink, checksum) behind one call
// shape, and a way for a fake head to answer any of them.
#pragma once

#include <functional>
#include <string>
#include <type_traits>
#include <variant>

#include "client/scalla_client.h"

namespace scalla {

enum class WalkKind { kOpen, kStat, kUnlink, kChecksum };
inline constexpr WalkKind kWalkKinds[] = {WalkKind::kOpen, WalkKind::kStat,
                                          WalkKind::kUnlink, WalkKind::kChecksum};

inline const char* WalkName(WalkKind kind) {
  switch (kind) {
    case WalkKind::kOpen: return "open";
    case WalkKind::kStat: return "stat";
    case WalkKind::kUnlink: return "unlink";
    case WalkKind::kChecksum: return "checksum";
  }
  return "?";
}

/// Starts a `kind` walk (a read-mode open) on `path`; `done` gets its error.
inline void StartWalk(client::ScallaClient& c, WalkKind kind, const std::string& path,
                      std::function<void(proto::XrdErr)> done) {
  switch (kind) {
    case WalkKind::kOpen:
      c.Open(path, cms::AccessMode::kRead, false,
             [done](const client::OpenOutcome& o) { done(o.err); });
      return;
    case WalkKind::kStat:
      c.Stat(path, [done](proto::XrdErr err, std::uint64_t) { done(err); });
      return;
    case WalkKind::kUnlink:
      c.Unlink(path, [done](proto::XrdErr err) { done(err); });
      return;
    case WalkKind::kChecksum:
      c.Checksum(path, [done](proto::XrdErr err, std::uint32_t) { done(err); });
      return;
  }
}

template <typename Resp, typename Req, typename Answer>
bool ReplyTo(const Req& request, Answer& answer) {
  Resp response;
  response.reqId = request.reqId;
  answer(request, response);
  return true;
}

/// When `message` is an open, stat, unlink or checksum, calls
/// `answer(request, response)` with a response of the matching type that
/// carries the request's reqId, and returns true.
template <typename Answer>
bool AnswerWalk(const proto::Message& message, Answer&& answer) {
  return std::visit(
      [&](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, proto::XrdOpen>) {
          return ReplyTo<proto::XrdOpenResp>(m, answer);
        } else if constexpr (std::is_same_v<M, proto::XrdStat>) {
          return ReplyTo<proto::XrdStatResp>(m, answer);
        } else if constexpr (std::is_same_v<M, proto::XrdUnlink>) {
          return ReplyTo<proto::XrdUnlinkResp>(m, answer);
        } else if constexpr (std::is_same_v<M, proto::XrdChecksum>) {
          return ReplyTo<proto::XrdChecksumResp>(m, answer);
        } else {
          return false;
        }
      },
      message);
}

}  // namespace scalla
