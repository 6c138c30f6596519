#include "trace.h"

#include <cstdio>
#include <utility>
#include <variant>

#include "host.h"

namespace perfbench {

using scalla::net::NodeAddr;

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {"loadgen", "client", "net",   "sched",
                                                      "xrd",     "oss",    "pcache"};
  return kNames[static_cast<int>(layer)];
}

struct Tracer::ThreadBuffer {
  struct Open {
    std::uint64_t id;
    std::uint64_t cause;
    std::uint64_t trace;
    std::int64_t start;
    std::int64_t childNs;
    const char* name;
    Layer layer;
  };
  struct Logged {
    std::uint64_t id;
    std::uint64_t cause;
    std::uint64_t trace;
    std::int64_t start;
    std::int64_t end;
    const char* name;
  };

  ThreadBuffer(Tracer* owner, std::uint64_t index) : owner(owner), index(index), tid(CurrentTid()) {}

  void Add(const char* name, Layer layer, std::int64_t self) {
    for (auto& [n, s] : names) {
      if (n == name) {
        ++s.count;
        s.selfNs += self;
        return;
      }
    }
    names.push_back({name, NameStats{layer, 1, self}});
  }

  Tracer* const owner;
  const std::uint64_t index;
  const int tid;
  std::uint64_t nextSeq = 1;
  std::vector<Open> stack;
  std::int64_t taskPostedAt = 0;  // post time of the executor task now running

  std::vector<std::pair<const char*, NameStats>> names;
  std::int64_t topLevelNs = 0;
  std::vector<std::int64_t> wait;
  std::vector<std::int64_t> transit;
  std::vector<std::int64_t> send;
  std::vector<Logged> log;
  std::uint64_t notLogged = 0;
};

namespace {

std::atomic<std::uint64_t> g_nextGeneration{1};
thread_local std::uint64_t tlsGeneration = 0;
thread_local Tracer::ThreadBuffer* tlsBuffer = nullptr;

}  // namespace

// Tracers are told apart by generation, not address: a later tracer may
// reuse a destroyed one's address while a thread's cache still points
// into the old tracer's buffers.
Tracer::Tracer(std::size_t logCapPerThread)
    : logCap_(logCapPerThread), generation_(g_nextGeneration.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer& Tracer::Local() {
  if (tlsGeneration == generation_) return *tlsBuffer;
  std::lock_guard lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>(this, buffers_.size() + 1));
  tlsBuffer = buffers_.back().get();
  tlsGeneration = generation_;
  return *tlsBuffer;
}

void Tracer::Void(const char* why) {
  if (voided_.exchange(1) == 0) {
    std::lock_guard lock(mu_);
    voidReason_ = why;
  }
}

std::string Tracer::VoidReason() const {
  std::lock_guard lock(mu_);
  return voidReason_;
}

void Tracer::PushStamp(NodeAddr from, NodeAddr to, const Stamp& stamp) {
  const std::uint64_t key = (std::uint64_t{from} << 32) | to;
  StampShard& shard = stamps_[(from * 31u + to) % stamps_.size()];
  std::lock_guard lock(shard.mu);
  shard.fifos[key].push_back(stamp);
}

bool Tracer::PopStamp(NodeAddr from, NodeAddr to, Stamp* out) {
  const std::uint64_t key = (std::uint64_t{from} << 32) | to;
  StampShard& shard = stamps_[(from * 31u + to) % stamps_.size()];
  std::lock_guard lock(shard.mu);
  auto it = shard.fifos.find(key);
  if (it == shard.fifos.end() || it->second.empty()) return false;
  *out = it->second.front();
  it->second.pop_front();
  return true;
}

TraceSummary Tracer::Summarize() const {
  TraceSummary s;
  std::lock_guard lock(mu_);
  for (const auto& b : buffers_) {
    for (const auto& [name, st] : b->names) {
      NameStats& m = s.byName[name];
      m.layer = st.layer;
      m.count += st.count;
      m.selfNs += st.selfNs;
      s.selfNsByLayer[static_cast<int>(st.layer)] += st.selfNs;
    }
    s.topLevelNsByTid[b->tid] += b->topLevelNs;
    s.waitNs.insert(s.waitNs.end(), b->wait.begin(), b->wait.end());
    s.transitNs.insert(s.transitNs.end(), b->transit.begin(), b->transit.end());
    s.sendNs.insert(s.sendNs.end(), b->send.begin(), b->send.end());
    s.spansLogged += b->log.size();
    s.spansNotLogged += b->notLogged;
  }
  return s;
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mu_);
  for (const auto& b : buffers_) {
    for (const auto& l : b->log) {
      std::fprintf(f,
                   "{\"id\":%llu,\"cause\":%llu,\"trace\":%llu,\"name\":\"%s\",\"tid\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(l.id),
                   static_cast<unsigned long long>(l.cause),
                   static_cast<unsigned long long>(l.trace), l.name, b->tid,
                   static_cast<long long>(l.start), static_cast<long long>(l.end));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- Span

Span::Span(Tracer* tracer, const char* name, Layer layer, std::uint64_t cause,
           std::uint64_t trace) {
  if (tracer == nullptr) return;
  buf_ = &tracer->Local();
  id_ = (buf_->index << 40) | buf_->nextSeq++;
  if (!buf_->stack.empty()) {
    const auto& enclosing = buf_->stack.back();
    if (cause == 0) cause = enclosing.id;
    if (trace == 0) trace = enclosing.trace;
  }
  trace_ = trace;
  start_ = NowNs();
  buf_->stack.push_back({id_, cause, trace, start_, 0, name, layer});
}

Span::~Span() {
  if (buf_ == nullptr) return;
  const std::int64_t end = NowNs();
  const Tracer::ThreadBuffer::Open open = buf_->stack.back();
  buf_->stack.pop_back();
  const std::int64_t total = end - open.start;
  if (!buf_->stack.empty()) buf_->stack.back().childNs += total;
  if (!buf_->owner->Recording()) return;
  buf_->Add(open.name, open.layer, total - open.childNs);
  if (buf_->stack.empty()) buf_->topLevelNs += total;
  if (buf_->log.size() < buf_->owner->logCap_) {
    buf_->log.push_back({open.id, open.cause, open.trace, open.start, end, open.name});
  } else {
    ++buf_->notLogged;
  }
}

// ------------------------------------------------------------ wrappers

namespace {

// Runs one executor task inside a "sched.task" (or "sched.timer") span
// caused by the span that posted it.
void RunTask(Tracer& tracer, const char* name, std::uint64_t cause, std::uint64_t trace,
             std::int64_t posted, const scalla::sched::Task& task) {
  Tracer::ThreadBuffer& buf = tracer.Local();
  const std::int64_t outerPosted = buf.taskPostedAt;
  buf.taskPostedAt = posted;
  {
    Span span(&tracer, name, Layer::kSched, cause, trace);
    if (posted != 0 && tracer.Recording()) buf.wait.push_back(span.startNs() - posted);
    task();
  }
  buf.taskPostedAt = outerPosted;
}

const char* SinkSpanName(SinkKind kind, std::size_t messageIndex) {
  static const std::vector<std::vector<std::string>> kNames = [] {
    static constexpr const char* kKinds[] = {"client.", "head.", "leaf.", "proxy."};
    std::vector<std::vector<std::string>> names(4);
    for (int k = 0; k < 4; ++k) {
      for (std::size_t i = 0; i < std::variant_size_v<scalla::proto::Message>; ++i) {
        scalla::proto::Message m;
        // Default-construct alternative i to ask the protocol for its name.
        [&]<std::size_t... I>(std::index_sequence<I...>) {
          ((I == i ? (void)m.emplace<I>() : void()), ...);
        }(std::make_index_sequence<std::variant_size_v<scalla::proto::Message>>());
        names[k].push_back(std::string(kKinds[k]) + scalla::proto::MessageName(m));
      }
    }
    return names;
  }();
  return kNames[static_cast<int>(kind)][messageIndex].c_str();
}

Layer LayerOf(SinkKind kind) {
  switch (kind) {
    case SinkKind::kClient:
      return Layer::kClient;
    case SinkKind::kProxy:
      return Layer::kPcache;
    case SinkKind::kHead:
    case SinkKind::kLeaf:
      break;
  }
  return Layer::kXrd;
}

}  // namespace

void TracingExecutor::Post(scalla::sched::Task task) {
  Tracer::ThreadBuffer& buf = tracer_.Local();
  const std::uint64_t cause = buf.stack.empty() ? 0 : buf.stack.back().id;
  const std::uint64_t trace = buf.stack.empty() ? 0 : buf.stack.back().trace;
  Span span(&tracer_, "sched.post", Layer::kSched);
  const std::int64_t posted = span.startNs();
  inner_.Post([this, cause, trace, posted, task = std::move(task)] {
    RunTask(tracer_, "sched.task", cause, trace, posted, task);
  });
}

scalla::sched::TimerId TracingExecutor::RunAfter(scalla::Duration delay,
                                                 scalla::sched::Task task) {
  return inner_.RunAfter(delay, [this, task = std::move(task)] {
    RunTask(tracer_, "sched.timer", 0, 0, 0, task);
  });
}

scalla::sched::TimerId TracingExecutor::RunEvery(scalla::Duration period,
                                                 scalla::sched::Task task) {
  return inner_.RunEvery(period, [this, task = std::move(task)] {
    RunTask(tracer_, "sched.timer", 0, 0, 0, task);
  });
}

void TracingSink::OnMessage(NodeAddr from, scalla::proto::Message message) {
  Tracer::Stamp stamp;
  if (!tracer_.PopStamp(from, self_, &stamp)) tracer_.Void("a delivered message had no stamp");
  Tracer::ThreadBuffer& buf = tracer_.Local();
  const std::int64_t posted = buf.taskPostedAt;
  Span span(&tracer_, SinkSpanName(kind_, message.index()), LayerOf(kind_), stamp.cause,
            stamp.trace);
  if (posted != 0 && stamp.sendStartNs != 0 && tracer_.Recording()) {
    buf.transit.push_back(posted - stamp.sendStartNs);
  }
  inner_.OnMessage(from, std::move(message));
}

void TracingSink::OnPeerDown(NodeAddr peer) {
  Span span(&tracer_, "net.peer_down", Layer::kNet);
  inner_.OnPeerDown(peer);
}

void TracingFabric::Send(NodeAddr from, NodeAddr to, scalla::proto::Message message) {
  Tracer::ThreadBuffer& buf = tracer_.Local();
  Span span(&tracer_, "net.send", Layer::kNet);
  tracer_.PushStamp(from, to, {span.id(), span.trace(), span.startNs()});
  inner_.Send(from, to, std::move(message));
  if (tracer_.Recording()) buf.send.push_back(NowNs() - span.startNs());
}

scalla::oss::FileState TracingOss::StateOf(const std::string& path) {
  Span span(&tracer_, Name("oss.state_of", "oss.disk_state_of"), Layer::kOss);
  return inner_.StateOf(path);
}

scalla::Result<void> TracingOss::Create(const std::string& path) {
  Span span(&tracer_, Name("oss.create", "oss.disk_create"), Layer::kOss);
  return inner_.Create(path);
}

scalla::Result<void> TracingOss::Write(const std::string& path, std::uint64_t offset,
                                       std::string_view data) {
  Span span(&tracer_, Name("oss.write", "oss.disk_write"), Layer::kOss);
  return inner_.Write(path, offset, data);
}

scalla::Result<std::string> TracingOss::Read(const std::string& path, std::uint64_t offset,
                                             std::uint32_t length) {
  Span span(&tracer_, Name("oss.read", "oss.disk_read"), Layer::kOss);
  return inner_.Read(path, offset, length);
}

std::optional<scalla::oss::StatInfo> TracingOss::Stat(const std::string& path) {
  Span span(&tracer_, Name("oss.stat", "oss.disk_stat"), Layer::kOss);
  return inner_.Stat(path);
}

scalla::Result<void> TracingOss::Unlink(const std::string& path) {
  Span span(&tracer_, Name("oss.unlink", "oss.disk_unlink"), Layer::kOss);
  return inner_.Unlink(path);
}

std::vector<std::string> TracingOss::List(const std::string& prefix) {
  Span span(&tracer_, Name("oss.list", "oss.disk_list"), Layer::kOss);
  return inner_.List(prefix);
}

}  // namespace perfbench
