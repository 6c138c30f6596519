#include "host.h"

#include <dirent.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

int CurrentTid() { return static_cast<int>(::syscall(SYS_gettid)); }

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::string ReadSmallFile(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return out;
  char buf[1024];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace

std::vector<ThreadCpu> ReadThreadCpu() {
  std::vector<ThreadCpu> out;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const std::string base = std::string("/proc/self/task/") + e->d_name;
    const std::string stat = ReadSmallFile(base + "/stat");
    // Fields after the parenthesised comm: state is field 3, utime 14,
    // stime 15 (1-based, proc(5)).
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    if (std::sscanf(stat.c_str() + close + 1,
                    " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                    &utime, &stime) != 2) {
      continue;
    }
    out.push_back({std::atoi(e->d_name), static_cast<double>(utime + stime) / tick});
  }
  ::closedir(dir);
  return out;
}

double RssMib() {
  const std::string statm = ReadSmallFile("/proc/self/statm");
  unsigned long long size = 0;
  unsigned long long resident = 0;
  if (std::sscanf(statm.c_str(), "%llu %llu", &size, &resident) != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

ProcStat ReadProcStat() {
  ProcStat s;
  const std::string stat = ReadSmallFile("/proc/stat");
  unsigned long long v[8] = {};
  if (std::sscanf(stat.c_str(), "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) s.total += x;
    s.iowait = v[4];
    s.steal = v[7];
  }
  return s;
}

double CalibrationSeconds() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the loop's result observable so it cannot be folded away.
  if (x == 0) std::fprintf(stderr, "calibration: degenerate state\n");
  return std::chrono::duration<double>(t1 - t0).count();
}

void NameThisThread(const std::string& name) {
  ::pthread_setname_np(::pthread_self(), name.substr(0, 15).c_str());
}

}  // namespace perfbench
