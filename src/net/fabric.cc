#include "net/fabric.h"

namespace scalla::net {

Result<void> ValidateFabricOptions(const FabricOptions& options) {
  if (options.maxQueuedMessages == 0) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "fabric.queuedepth must be a positive integer");
  }
  if (options.connectTimeout <= std::chrono::milliseconds::zero()) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "fabric.connecttimeout must be a positive duration");
  }
  if (options.writeTimeout <= std::chrono::milliseconds::zero()) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "fabric.writetimeout must be a positive duration");
  }
  if (options.idleTimeout < std::chrono::milliseconds::zero()) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "fabric.idletimeout must be non-negative (0 disables)");
  }
  return Result<void>::Ok();
}

}  // namespace scalla::net
