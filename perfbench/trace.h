// Tracing from outside the program: wrappers around the four public
// interfaces the nodes are built on (sched::Executor, net::MessageSink,
// net::Fabric, oss::Oss) record one span per call at each layer boundary.
//
// A span has a name, a start, an end, the span that caused it and a trace
// id (the load generator's operation id). Causality across threads is
// carried by stamps: TracingFabric::Send pushes {sending span, trace id,
// send time} onto a FIFO per (from, to) pair, and the receiving
// TracingSink pops it.
// TcpFabric delivers each pair in order, so the FIFOs stay aligned as long
// as nothing is dropped; a drop, an overflow or a missing stamp voids the
// trace (Tracer::Void()).
//
// Self time (span duration minus the time its child spans on the same
// thread cover) is summed per span name and per layer while recording is
// on. Spans are also kept in memory, up to a cap per thread, and written to
// a JSON-lines file after the run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric.h"
#include "oss/oss.h"
#include "sched/executor.h"

namespace perfbench {

/// The repository's modules, as the cost table names them. xrd includes
/// the cms work its handlers do inline; pcache includes its embedded
/// origin client; loadgen is the benchmark's own load generator.
enum class Layer : std::uint8_t { kLoadGen, kClient, kNet, kSched, kXrd, kOss, kPcache };
inline constexpr int kLayerCount = 7;
const char* LayerName(Layer layer);

/// Which kind of endpoint a TracingSink wraps; decides its spans' names
/// ("head.XrdOpen", "leaf.CmsQuery", ...) and layer.
enum class SinkKind : std::uint8_t { kClient, kHead, kLeaf, kProxy };

struct NameStats {
  Layer layer = Layer::kLoadGen;
  std::uint64_t count = 0;
  std::int64_t selfNs = 0;
};

/// What the tracer saw while recording was on, merged over threads.
struct TraceSummary {
  std::map<std::string, NameStats> byName;
  std::array<std::int64_t, kLayerCount> selfNsByLayer{};
  /// Wall time covered by top-level spans (nothing enclosing them), per
  /// kernel thread id: the part of a thread's CPU that spans account for.
  std::map<int, std::int64_t> topLevelNsByTid;
  std::vector<std::int64_t> waitNs;     // executor Post -> task start
  std::vector<std::int64_t> transitNs;  // Send start -> delivery task posted
  std::vector<std::int64_t> sendNs;     // duration of Fabric::Send
  std::uint64_t spansLogged = 0;
  std::uint64_t spansNotLogged = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t logCapPerThread);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Aggregation (and the span log) is on only between these calls, so
  /// the summary covers exactly the timed window.
  void SetRecording(bool on) { recording_.store(on, std::memory_order_release); }
  bool Recording() const { return recording_.load(std::memory_order_acquire); }

  /// Marks the trace unusable (lost message, missing stamp).
  void Void(const char* why);
  bool IsVoid() const { return voided_.load() != 0; }
  std::string VoidReason() const;

  /// Merges every thread's buffers. Call once the traced threads have
  /// stopped.
  TraceSummary Summarize() const;
  /// Writes the logged spans as JSON lines; false if the file failed.
  bool WriteSpans(const std::string& path) const;

  struct Stamp {
    std::uint64_t cause = 0;
    std::uint64_t trace = 0;
    std::int64_t sendStartNs = 0;
  };
  void PushStamp(scalla::net::NodeAddr from, scalla::net::NodeAddr to, const Stamp& stamp);
  bool PopStamp(scalla::net::NodeAddr from, scalla::net::NodeAddr to, Stamp* out);

  // ---- used by Span and the wrappers ----
  struct ThreadBuffer;
  ThreadBuffer& Local();

 private:
  friend class Span;

  struct StampShard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::deque<Stamp>> fifos;
  };

  const std::size_t logCap_;
  const std::uint64_t generation_;
  std::atomic<bool> recording_{false};
  std::atomic<int> voided_{0};
  mutable std::mutex mu_;  // guards buffers_ shape and voidReason_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::string voidReason_;
  std::array<StampShard, 64> stamps_;
};

/// RAII span on the calling thread. `cause` 0 means "the enclosing span",
/// `trace` 0 means "the enclosing span's trace id". A null tracer makes
/// the span a no-op, so load-generator code runs unchanged in untraced
/// runs.
class Span {
 public:
  Span(Tracer* tracer, const char* name, Layer layer, std::uint64_t cause = 0,
       std::uint64_t trace = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  std::uint64_t trace() const { return trace_; }
  std::int64_t startNs() const { return start_; }

 private:
  Tracer::ThreadBuffer* buf_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t trace_ = 0;
  std::int64_t start_ = 0;
};

class TracingExecutor final : public scalla::sched::Executor {
 public:
  TracingExecutor(scalla::sched::Executor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void Post(scalla::sched::Task task) override;
  scalla::sched::TimerId RunAfter(scalla::Duration delay, scalla::sched::Task task) override;
  scalla::sched::TimerId RunEvery(scalla::Duration period, scalla::sched::Task task) override;
  bool Cancel(scalla::sched::TimerId id) override { return inner_.Cancel(id); }
  scalla::util::Clock& clock() override { return inner_.clock(); }

 private:
  scalla::sched::Executor& inner_;
  Tracer& tracer_;
};

class TracingSink final : public scalla::net::MessageSink {
 public:
  TracingSink(scalla::net::MessageSink& inner, Tracer& tracer, scalla::net::NodeAddr self,
              SinkKind kind)
      : inner_(inner), tracer_(tracer), self_(self), kind_(kind) {}

  void OnMessage(scalla::net::NodeAddr from, scalla::proto::Message message) override;
  void OnPeerDown(scalla::net::NodeAddr peer) override;

 private:
  scalla::net::MessageSink& inner_;
  Tracer& tracer_;
  const scalla::net::NodeAddr self_;
  const SinkKind kind_;
};

class TracingFabric final : public scalla::net::Fabric {
 public:
  TracingFabric(scalla::net::Fabric& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  void Send(scalla::net::NodeAddr from, scalla::net::NodeAddr to,
            scalla::proto::Message message) override;
  Counters GetCounters() const override { return inner_.GetCounters(); }
  Counters PerPeerCounters(scalla::net::NodeAddr peer) const override {
    return inner_.PerPeerCounters(peer);
  }

  void SetDown(scalla::net::NodeAddr addr, bool down) override { inner_.SetDown(addr, down); }
  void SetLinkCut(scalla::net::NodeAddr a, scalla::net::NodeAddr b, bool cut) override {
    inner_.SetLinkCut(a, b, cut);
  }
  void SetDrop(scalla::net::NodeAddr from, scalla::net::NodeAddr to, bool drop) override {
    inner_.SetDrop(from, to, drop);
  }
  void SetDelay(scalla::net::NodeAddr from, scalla::net::NodeAddr to,
                scalla::Duration delay) override {
    inner_.SetDelay(from, to, delay);
  }
  void SetWedged(scalla::net::NodeAddr addr, bool wedged) override {
    inner_.SetWedged(addr, wedged);
  }

 private:
  scalla::net::Fabric& inner_;
  Tracer& tracer_;
};

/// Wraps a leaf's storage ("oss.*" spans) or the proxy's disk tier
/// ("oss.disk_*" spans).
class TracingOss final : public scalla::oss::Oss {
 public:
  TracingOss(scalla::oss::Oss& inner, Tracer& tracer, bool diskTier)
      : inner_(inner), tracer_(tracer), disk_(diskTier) {}

  scalla::oss::FileState StateOf(const std::string& path) override;
  scalla::Result<void> Create(const std::string& path) override;
  scalla::Result<void> Write(const std::string& path, std::uint64_t offset,
                             std::string_view data) override;
  scalla::Result<std::string> Read(const std::string& path, std::uint64_t offset,
                                   std::uint32_t length) override;
  std::optional<scalla::oss::StatInfo> Stat(const std::string& path) override;
  scalla::Result<void> Unlink(const std::string& path) override;
  std::vector<std::string> List(const std::string& prefix) override;
  std::optional<scalla::Duration> BeginStage(const std::string& path) override {
    return inner_.BeginStage(path);
  }
  std::optional<std::uint64_t> UsedBytes() override { return inner_.UsedBytes(); }

 private:
  const char* Name(const char* leaf, const char* disk) const { return disk_ ? disk : leaf; }

  scalla::oss::Oss& inner_;
  Tracer& tracer_;
  const bool disk_;
};

}  // namespace perfbench
