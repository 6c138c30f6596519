// Scope guard for a fabric endpoint hosted on its own ThreadExecutor.
// Declared after the sink the endpoint delivers to, it runs first at scope
// exit: it unregisters the endpoint, so no frame reaches the sink again,
// and then stops the executor, so no timer or posted task runs it either.
// Only then are the sink, the executor and the fabric destroyed, whatever
// path leaves the scope.
#pragma once

#include "net/tcp_fabric.h"
#include "sched/thread_executor.h"

namespace scalla::net {

class EndpointGuard {
 public:
  EndpointGuard(TcpFabric& fabric, NodeAddr addr, sched::ThreadExecutor& executor)
      : fabric_(fabric), addr_(addr), executor_(executor) {}
  ~EndpointGuard() {
    fabric_.Unregister(addr_);  // a no-op when Register failed
    executor_.Stop();
  }

  EndpointGuard(const EndpointGuard&) = delete;
  EndpointGuard& operator=(const EndpointGuard&) = delete;

 private:
  TcpFabric& fabric_;
  const NodeAddr addr_;
  sched::ThreadExecutor& executor_;
};

}  // namespace scalla::net
