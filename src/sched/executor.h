// Execution abstraction. The paper's cmsd runs several cooperating
// threads: the L_t/64 window-tick thread, the background purge jobs, the
// 133 ms fast-response sweep thread, and per-request worker threads. In
// this reproduction each such activity is expressed as tasks and timers on
// an Executor so that identical cms code runs:
//   - under sched::ThreadExecutor  -> real threads, real time;
//   - under sim::EventEngine       -> single-threaded discrete-event
//     simulation with virtual time (deterministic tests, large-scale
//     latency benches on one core).
#pragma once

#include <cstdint>
#include <functional>

#include "util/clock.h"
#include "util/types.h"

namespace scalla::sched {

using Task = std::function<void()>;
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs `task` as soon as possible, after previously posted tasks.
  virtual void Post(Task task) = 0;

  /// Runs `task` once, `delay` from now. Returns a cancellation handle.
  virtual TimerId RunAfter(Duration delay, Task task) = 0;

  /// Runs `task` every `period`, first firing one period from now.
  virtual TimerId RunEvery(Duration period, Task task) = 0;

  /// Cancels a timer; returns false if it already fired (one-shot) or was
  /// never valid.
  virtual bool Cancel(TimerId id) = 0;

  /// The time source this executor schedules against.
  virtual util::Clock& clock() = 0;
};

}  // namespace scalla::sched
