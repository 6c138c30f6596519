// The three workloads, their seeded inputs, and the closed-loop load
// generator that runs them against a Cluster and checks every answer.
//
//   warm_open  1 endpoint x 4 in flight: open(kRead) -> close, paths drawn
//              Zipf(1.0) from 20k names the manager has cached in set-up.
//   cold_open  1 endpoint x 4 in flight: open(kRead) -> close on a seeded
//              permutation of ~1M names the manager has never seen.
//   data_mix   reader (via the proxy) and writer (via the manager), 4 in
//              flight each: 64 KiB block reads drawn Zipf(1.0) from a
//              256 MiB read set, 64 KiB overwrites of a separate file set,
//              gated so writes stay a fixed quarter of operations.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/scalla_client.h"
#include "cluster.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

enum class WorkloadKind { kWarmOpen, kColdOpen, kDataMix };
bool ParseWorkload(const std::string& name, WorkloadKind* out);
const char* WorkloadName(WorkloadKind kind);

inline constexpr int kInFlight = 4;  // operations outstanding per endpoint
inline constexpr std::uint32_t kBlockBytes = 64 * 1024;

inline constexpr std::size_t kWarmFiles = 20'000;
inline constexpr std::size_t kColdFiles = 1u << 20;
inline constexpr std::size_t kColdWarmupFiles = 2'000;
inline constexpr std::size_t kReadFiles = 128;
inline constexpr std::size_t kReadFileBlocks = 32;  // 2 MiB files, 256 MiB read set
inline constexpr std::size_t kWriteFiles = 32;
inline constexpr std::size_t kWriteFileBlocks = 16;  // 1 MiB files
inline constexpr std::uint64_t kProxyDramBytes = 32ull << 20;  // 1/8 of the read set
inline constexpr std::uint64_t kProxyDiskBytes = 128ull << 20;  // 1/2 of the read set
inline constexpr int kReadsPerWrite = 3;  // data_mix: writes are 1/4 of operations

/// Names, placement and content, all derived from the seed.
class Namespace {
 public:
  explicit Namespace(std::uint64_t seed);

  /// File i of the workload namespace (HEP-style, util::MakeFilePath).
  std::string Path(std::size_t i) const;
  /// File i of the separate prefix cold_open's set-up warms up on.
  std::string WarmupPath(std::size_t i) const;
  /// The one leaf holding file i (of either prefix).
  int LeafOf(std::size_t i) const;
  /// Per-file key of the seeded content.
  std::uint64_t FileKey(std::size_t i) const;

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t runBase_;
};

/// Seeded content: 8-byte word w of a file is key ^ w*A ^ version*B, so a
/// read of the wrong file, offset or version is detected.
void FillContent(std::string* out, std::size_t bytes, std::uint64_t key,
                 std::uint64_t firstByte, std::uint64_t version);
bool CheckContent(const std::string& data, std::uint64_t key, std::uint64_t firstByte,
                  std::uint64_t version);

enum class OpKind : std::uint8_t { kOpenClose, kRead, kWrite };

/// One operation completed correctly in the timed window.
struct OpSample {
  std::int64_t endNs = 0;   // completion time (steady clock)
  std::int64_t openNs = 0;  // Open call -> outcome
  std::int64_t opNs = 0;    // whole operation
  OpKind kind = OpKind::kOpenClose;
};

/// Everything the load generator measured in the timed window.
struct WindowStats {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t completed = 0;  // operations finished correctly in the window
  std::uint64_t failed = 0;     // errors, refusals and wrong answers in the window
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t payloadBytes = 0;
  std::vector<OpSample> samples;
  double rssMib = 0;  // see LoadGen::kRssMarkOps
  bool rssAtMark = false;

  double Seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

/// Failures and unexpected protocol paths seen outside the window too.
struct AnswerChecks {
  std::uint64_t failed = 0;              // any phase
  std::uint64_t wrongNode = 0;           // open landed elsewhere than set-up placed it
  std::uint64_t wrongBytes = 0;          // read content mismatch
  std::uint64_t unexpectedRedirects = 0; // redirect count differs from the workload's path
  std::uint64_t waits = 0;               // opens told to wait (full delay)
  std::uint64_t readBackMismatches = 0;  // written blocks not found in the leaf oss
  std::uint64_t readBackBlocks = 0;
  std::string firstError;
};

/// Closed-loop load generator. Each endpoint is one ScallaClient on its own
/// executor thread; every callback runs there, so per-endpoint state needs
/// no lock. Only the data_mix gate is shared between endpoints.
class LoadGen {
 public:
  /// RSS is sampled when the window has completed this many operations, so
  /// a faster program (which completes more operations, and keeps more
  /// latency samples, in a fixed-length window) does not read as a memory
  /// regression.
  static constexpr std::uint64_t kRssMarkOps = 10'000;

  LoadGen(WorkloadKind kind, const Namespace& ns, Cluster& cluster, Tracer* tracer);
  ~LoadGen();

  /// Places the namespace on the leaves' oss.
  void PlaceNamespace();
  /// Set-up warm-up: fills the manager's cache (warm_open), opens the
  /// connections on the separate prefix (cold_open), or opens every file
  /// once and fills the proxy tiers (data_mix). Blocks.
  void WarmUp();

  /// Starts the closed loops (unmeasured until BeginWindow).
  void Start();
  /// Opens and closes the timed window; both return the boundary time.
  std::int64_t BeginWindow();
  std::int64_t EndWindow();
  /// Stops issuing, waits for in-flight operations, and collects the
  /// window's measurements.
  void Stop();

  /// After the loops stopped: every written block read back from its leaf.
  void ReadBackWrites();

  const WindowStats& Window() const { return window_; }
  const AnswerChecks& Checks() const { return checks_; }

 private:
  struct Op {
    OpKind kind = OpKind::kOpenClose;
    scalla::cms::AccessMode mode = scalla::cms::AccessMode::kRead;
    std::string path;
    NodeAddr expectNode = 0;
    int expectRedirects = 1;
    std::uint64_t key = 0;
    std::uint64_t block = 0;
    std::uint64_t version = 0;
  };
  struct Endpoint;
  struct Slot {
    Endpoint* ep = nullptr;
    int index = 0;
    Op op;
    std::uint64_t traceId = 0;
    std::int64_t startNs = 0;
    std::int64_t openNs = 0;
    scalla::client::FileRef file;
    bool ok = true;
  };
  struct Endpoint {
    int index = 0;
    scalla::client::ScallaClient* client = nullptr;
    scalla::sched::Executor* exec = nullptr;
    scalla::util::Rng rng;
    std::uint64_t nextOp = 1;
    // Batch mode (set-up): ops served in order, then the slot stops.
    std::vector<Op> batch;
    std::size_t batchNext = 0;
    // Measured-window accumulation (owned by this endpoint's thread).
    WindowStats stats;
    AnswerChecks checks;
  };
  enum class Next { kGo, kPark, kStop };

  /// Starts `perEndpoint` slots on one endpoint (or all, for -1).
  void StartSlots(int endpoint, int perEndpoint);
  void RunBatch(int endpoint, std::vector<Op> ops, int parallel);
  void MergeChecks();
  void MergeWindow();
  Next NextOp(Slot& s);
  Next NextWorkloadOp(Slot& s);
  Next AdmitMix(Slot& s, bool write);
  void StartOp(Slot& s);
  void OnOpen(Slot& s, const scalla::client::OpenOutcome& outcome);
  void Close(Slot& s);
  void Finish(Slot& s);
  void Fail(Slot& s, std::uint64_t AnswerChecks::*counter, const std::string& what);
  Op OpenCloseOp(const std::string& path, int leaf) const;

  const WorkloadKind kind_;
  const Namespace& ns_;
  Cluster& cluster_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::deque<Slot> slots_;  // stable addresses: callbacks hold Slot&

  std::atomic<bool> stopping_{false};
  std::atomic<bool> measured_{false};
  std::atomic<bool> batchMode_{false};
  std::atomic<std::int64_t> activeSlots_{0};  // slots that have not stopped
  std::atomic<std::uint64_t> windowDone_{0};
  std::atomic<std::uint64_t> warmupDone_{0};
  std::int64_t windowStartNs_ = 0;
  std::int64_t windowEndNs_ = 0;
  double rssAtMark_ = 0;
  double rssAtEnd_ = 0;

  // warm_open: Zipf over a seeded permutation of the namespace.
  std::vector<std::string> warmPaths_;
  std::vector<std::uint32_t> perm_;
  std::unique_ptr<scalla::util::ZipfSampler> zipf_;
  // cold_open: position of the walk through the permutation.
  std::size_t coldNext_ = 0;
  // data_mix: last version written to each block of the write set.
  std::vector<std::uint64_t> versions_;
  std::mutex gateMu_;  // guards the mix counters and parked slots
  std::int64_t mixReads_ = 0;
  std::int64_t mixWrites_ = 0;
  std::vector<Slot*> parkedReads_;
  std::vector<Slot*> parkedWrites_;

  WindowStats window_;
  AnswerChecks checks_;
};

}  // namespace perfbench
