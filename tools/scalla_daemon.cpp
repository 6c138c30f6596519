// scalla_daemon: run one Scalla node (manager, supervisor, data server,
// federation meta-manager, or caching proxy) over real TCP from a
// directive file — the shape of a production xrootd + cmsd pair in a
// single process.
//
//   $ scalla_daemon <config-file> [--base-port N] [--proxy]
//
// --proxy forces the proxy role regardless of all.role (convenience for
// pointing a stock config at a cluster as a cache tier); a proxy config
// names its origin heads with all.manager and tunes the cache with the
// pcache.* directives (see xrd/node_config_loader.h).
//
// all.role meta runs the federation meta-manager, a manager whose members
// are cluster heads: heads configured with fed.meta log into it as their
// parent, and clients open against its address to reach every member
// cluster (docs/FEDERATION.md).
//
// Example cluster on one machine (three shells):
//   manager.cf:  all.role manager
//                all.addr 1
//                all.export /store
//   server1.cf:  all.role server
//                all.addr 11
//                all.manager 1
//                all.export /store
//                oss.localroot /tmp/scalla-s1
//   $ scalla_daemon manager.cf &
//   $ scalla_daemon server1.cf &
//   $ scalla_cli --head 1 put /store/hello "hi"
//
// Endpoints listen on 127.0.0.1:(basePort + all.addr); default base port
// is 10940 (nod to xrootd's 1094).
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <semaphore>
#include <sstream>

#include "net/endpoint_guard.h"
#include "net/tcp_fabric.h"
#include "oss/local_oss.h"
#include "oss/mem_oss.h"
#include "pcache/proxy_node.h"
#include "sched/thread_executor.h"
#include "util/logger.h"
#include "xrd/node_config_loader.h"

namespace {

std::binary_semaphore g_shutdown{0};

void HandleSignal(int) { g_shutdown.release(); }

}  // namespace

int main(int argc, char** argv) {
  using namespace scalla;

  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s <config-file> [--base-port N] [--proxy]\n",
                 argv[0]);
    return 2;
  };
  if (argc < 2) return usage();
  std::uint16_t basePort = 10940;
  bool forceProxy = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--base-port") == 0) {
      // Not a whole number, or past 65535: a usage error, not a wrapped port.
      const char* text = i + 1 < argc ? argv[++i] : "";
      const char* end = text + std::strlen(text);
      const auto [stop, ec] = std::from_chars(text, end, basePort);
      if (ec != std::errc{} || stop != end) return usage();
    } else if (std::strcmp(argv[i], "--proxy") == 0) {
      forceProxy = true;
    }
  }

  std::ifstream in(argv[1]);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read config file %s\n", argv[1]);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  std::string error;
  const auto loaded = xrd::LoadNodeConfig(buffer.str(), &error);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "config error: %s\n", error.c_str());
    return 2;
  }

  util::Logger::Instance().SetLevel(util::LogLevel::kInfo);

  net::TcpFabric fabric(basePort, loaded->fabric);
  sched::ThreadExecutor executor;

  if (forceProxy || loaded->node.role == xrd::NodeRole::kProxy) {
    if (loaded->node.parent == 0) {
      std::fprintf(stderr, "config error: a proxy needs all.manager "
                           "(its origin cluster head)\n");
      return 2;
    }
    pcache::ProxyCacheConfig pcfg;
    pcfg.addr = loaded->node.addr;
    pcfg.name = loaded->node.name;
    pcfg.origin.head = loaded->node.parent;
    pcfg.origin.extraHeads = loaded->node.extraParents;
    pcfg.origin.cnsd = loaded->node.cnsd;
    pcfg.cache = loaded->pcacheTiered.dram;
    pcfg.diskCapacityBytes = loaded->pcacheTiered.diskCapacityBytes;
    pcfg.diskHighWatermark = loaded->pcacheTiered.diskHighWatermark;
    pcfg.diskLowWatermark = loaded->pcacheTiered.diskLowWatermark;
    pcfg.ghostEntries = loaded->pcacheTiered.ghostEntries;
    pcfg.readAhead = loaded->pcacheReadAhead;
    // Disk tier: a LocalOss directory that DRAM victims spill into (the
    // loader guarantees pcache.disk.path accompanies a non-zero capacity).
    std::unique_ptr<oss::LocalOss> diskTier;
    if (pcfg.diskCapacityBytes > 0) {
      std::filesystem::create_directories(loaded->pcacheDiskRoot);
      diskTier = std::make_unique<oss::LocalOss>(loaded->pcacheDiskRoot);
      pcfg.diskOss = diskTier.get();
    }
    pcache::ProxyCacheNode proxy(pcfg, executor, fabric);
    const net::EndpointGuard guard(fabric, pcfg.addr, executor);
    if (!fabric.Register(pcfg.addr, &proxy, &executor)) {
      std::fprintf(stderr, "cannot bind 127.0.0.1:%u\n", basePort + pcfg.addr);
      return 1;
    }
    std::printf("proxy '%s' up on 127.0.0.1:%u (addr %u) origin=%u "
                "dram=%llu bytes, %u-byte blocks, disk=%llu bytes%s%s\n",
                pcfg.name.c_str(), basePort + pcfg.addr, pcfg.addr,
                pcfg.origin.head,
                static_cast<unsigned long long>(pcfg.cache.capacityBytes),
                pcfg.cache.blockSize,
                static_cast<unsigned long long>(pcfg.diskCapacityBytes),
                pcfg.diskCapacityBytes > 0 ? " at " : "",
                pcfg.diskCapacityBytes > 0 ? loaded->pcacheDiskRoot.c_str() : "");
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    executor.RunEvery(std::chrono::seconds(60), [&proxy] {
      std::printf("metrics %s\n", proxy.SnapshotMetrics().ToJson().c_str());
      std::fflush(stdout);
    });
    g_shutdown.acquire();
    std::string metrics;
    executor.RunSync([&] { metrics = proxy.SnapshotMetrics().ToJson(); });
    std::printf("shutting down\nmetrics %s\n", metrics.c_str());
    return 0;
  }

  std::unique_ptr<oss::Oss> storage;
  if (loaded->node.role == xrd::NodeRole::kServer) {
    if (!loaded->localRoot.empty()) {
      std::filesystem::create_directories(loaded->localRoot);
      storage = std::make_unique<oss::LocalOss>(loaded->localRoot);
    } else {
      storage = std::make_unique<oss::MemOss>(executor.clock());
    }
  }

  // The daemon is the only node in its process, so IT owns folding the
  // process-shared fabric counters into the exported stats tree.
  xrd::NodeConfig nodeConfig = loaded->node;
  nodeConfig.exportFabricStats = true;
  xrd::ScallaNode node(nodeConfig, executor, fabric, storage.get());
  const net::EndpointGuard guard(fabric, loaded->node.addr, executor);
  if (!fabric.Register(loaded->node.addr, &node, &executor)) {
    std::fprintf(stderr, "cannot bind 127.0.0.1:%u\n",
                 basePort + loaded->node.addr);
    return 1;
  }
  executor.RunSync([&node] { node.Start(); });
  const std::string rootNote =
      loaded->localRoot.empty() ? std::string() : " root=" + loaded->localRoot;
  std::printf("%s '%s' up on 127.0.0.1:%u (addr %u)%s\n",
              loaded->node.role == xrd::NodeRole::kManager      ? "manager"
              : loaded->node.role == xrd::NodeRole::kSupervisor ? "supervisor"
                                                                : "server",
              loaded->node.name.c_str(), basePort + loaded->node.addr,
              loaded->node.addr, rootNote.c_str());
  if (loaded->node.cms.ping > Duration::zero()) {
    std::printf("heartbeat: ping every %lld ms, dead after %d misses"
                " (suspend at load %u)\n",
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        loaded->node.cms.ping)
                        .count()),
                loaded->node.cms.missLimit, loaded->node.cms.suspendLoad);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Periodic operator status line (like xrootd's summary monitoring),
  // plus the node's full metrics registry and transport counters as one
  // JSON line a log scraper can ingest.
  executor.RunEvery(std::chrono::seconds(60), [&node, &fabric] {
    std::printf("%s\n", node.DescribeStatus().c_str());
    const auto net = fabric.GetCounters();
    std::printf("metrics %s\n", node.SnapshotMetrics().ToJson().c_str());
    std::printf("net frames_sent=%llu frames_received=%llu bytes_sent=%llu "
                "bytes_received=%llu reconnects=%llu idle_reaps=%llu "
                "dropped=%llu queue_overflows=%llu\n",
                static_cast<unsigned long long>(net.framesSent),
                static_cast<unsigned long long>(net.framesReceived),
                static_cast<unsigned long long>(net.bytesSent),
                static_cast<unsigned long long>(net.bytesReceived),
                static_cast<unsigned long long>(net.reconnects),
                static_cast<unsigned long long>(net.idleReaps),
                static_cast<unsigned long long>(net.messagesDropped),
                static_cast<unsigned long long>(net.queueOverflows));
    std::fflush(stdout);
  });
  g_shutdown.acquire();
  std::string status, metrics;
  executor.RunSync([&] {
    status = node.DescribeStatus();
    metrics = node.SnapshotMetrics().ToJson();
    node.Stop();
  });
  std::printf("shutting down\n%s\nmetrics %s\n", status.c_str(), metrics.c_str());
  return 0;
}
