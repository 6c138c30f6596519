#include "util/result.h"

namespace scalla {

const char* XrdErrName(proto::XrdErr err) {
  switch (err) {
    case proto::XrdErr::kNone: return "ok";
    case proto::XrdErr::kNotFound: return "not found";
    case proto::XrdErr::kIo: return "I/O error";
    case proto::XrdErr::kExists: return "already exists";
    case proto::XrdErr::kInvalid: return "invalid argument";
    case proto::XrdErr::kNoSpace: return "no space";
    case proto::XrdErr::kLoop: return "redirect loop";
    case proto::XrdErr::kStale: return "stale state";
  }
  return "unknown error";
}

}  // namespace scalla
