// Host and process probes: CPU clocks, per-thread CPU from /proc, RSS, and
// the host-noise record (calibration loop, steal and iowait) that lets a
// reader tell a slow host from slow code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Kernel thread id of the calling thread.
int CurrentTid();

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

/// CPU time of the whole process, all threads, in seconds.
double ProcessCpuSeconds();

/// CPU time (user + system) of every live thread of this process.
struct ThreadCpu {
  int tid = 0;
  double cpuSeconds = 0;
};
std::vector<ThreadCpu> ReadThreadCpu();

/// Resident set size of this process in MiB.
double RssMib();

/// Aggregate /proc/stat CPU counters, in clock ticks.
struct ProcStat {
  std::uint64_t total = 0;
  std::uint64_t iowait = 0;
  std::uint64_t steal = 0;
};
ProcStat ReadProcStat();

/// Seconds a fixed integer loop takes on this thread: the same work on
/// every run, so its spread across runs is the host's spread.
double CalibrationSeconds();

/// Names the calling thread (shows in /proc/self/task/<tid>/comm).
void NameThisThread(const std::string& name);

}  // namespace perfbench
