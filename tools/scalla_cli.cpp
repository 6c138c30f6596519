// scalla_cli: command-line client for a running Scalla cluster (see
// scalla_daemon). Speaks the xrd protocol over loopback TCP.
//
//   scalla_cli [--head N] [--base-port N] [--addr N] <command> ...
//
//   commands:
//     put <path> <text>        create a file with the given content
//     get <path>               print a file's content
//     stat <path>              print the file size
//     rm <path>                unlink a file
//     cksum <path>             CRC32 of the file content (server-side)
//     prepare <path> [...]     announce upcoming accesses (parallel prepare)
//     ls <prefix> --cnsd N     list the global namespace via the cnsd
//     stats [--json]           tree-aggregated metrics from the whole cluster
//     purge [path]             drop a pcache proxy's cached blocks (all, or
//                              one path); --head must be the proxy
//     cachestat                a pcache proxy's occupancy (blocks / bytes)
//     drain <server>           take a server (by cms name) out of selection
//                              while it stays online
//     restore <server>         undo a drain
//     fed locate <path>        ask a federation meta-manager (--head must be
//                              the meta) which cluster owns the path
//     fed stat [--json]        federation-wide metrics merged across every
//                              member cluster by the meta
#include <cstdio>
#include <future>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "client/sync_client.h"
#include "endpoint_guard.h"
#include "net/tcp_fabric.h"
#include "sched/thread_executor.h"

using namespace scalla;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: scalla_cli [--head N] [--base-port N] [--addr N] [--cnsd N]\n"
               "                  put|get|stat|rm|cksum|prepare|ls|stats|purge|cachestat"
               "|drain|restore|fed <args>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  client::ClientConfig cfg;
  cfg.addr = 999;
  cfg.head = 1;
  std::uint16_t basePort = 10940;

  int i = 1;
  for (; i + 1 < argc && argv[i][0] == '-'; i += 2) {
    if (std::strcmp(argv[i], "--head") == 0) {
      cfg.head = static_cast<net::NodeAddr>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--base-port") == 0) {
      basePort = static_cast<std::uint16_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--addr") == 0) {
      cfg.addr = static_cast<net::NodeAddr>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--cnsd") == 0) {
      cfg.cnsd = static_cast<net::NodeAddr>(std::atoi(argv[i + 1]));
    } else {
      return Usage();
    }
  }
  if (i >= argc) return Usage();
  const std::string command = argv[i++];

  net::TcpFabric fabric(basePort);
  sched::ThreadExecutor executor;
  client::SyncClient client(cfg, executor, fabric, std::chrono::seconds(30));
  const tools::EndpointGuard guard(fabric, cfg.addr, executor);
  if (!fabric.Register(cfg.addr, &client.async(), &executor)) {
    std::fprintf(stderr, "cannot bind client port %u\n", basePort + cfg.addr);
    return 1;
  }

  if (command == "put" && i + 1 < argc) {
    const Result<void> put = client.PutFile(argv[i], argv[i + 1]);
    std::printf("put %s: %s\n", argv[i], put ? "ok" : put.error().message.c_str());
    return put ? 0 : 1;
  }
  if (command == "get" && i < argc) {
    const Result<std::string> data = client.GetFile(argv[i]);
    if (!data) {
      std::fprintf(stderr, "get: %s\n", data.error().message.c_str());
      return 1;
    }
    std::fwrite(data.value().data(), 1, data.value().size(), stdout);
    std::printf("\n");
    return 0;
  }
  if (command == "stat" && i < argc) {
    const Result<std::uint64_t> size = client.Stat(argv[i]);
    if (!size) {
      std::fprintf(stderr, "stat: %s\n", size.error().message.c_str());
      return 1;
    }
    std::printf("%s: %llu bytes\n", argv[i],
                static_cast<unsigned long long>(size.value()));
    return 0;
  }
  if (command == "rm" && i < argc) {
    const Result<void> rm = client.Unlink(argv[i]);
    std::printf("rm %s: %s\n", argv[i], rm ? "ok" : rm.error().message.c_str());
    return rm ? 0 : 1;
  }
  if (command == "cksum" && i < argc) {
    const Result<std::uint32_t> crc = client.Checksum(argv[i]);
    if (!crc) {
      std::fprintf(stderr, "cksum: %s\n", crc.error().message.c_str());
      return 1;
    }
    std::printf("%s: crc32 %08X\n", argv[i], crc.value());
    return 0;
  }
  if (command == "prepare" && i < argc) {
    std::vector<std::string> paths;
    for (; i < argc; ++i) paths.emplace_back(argv[i]);
    const Result<void> prep = client.Prepare(paths, cms::AccessMode::kRead);
    std::printf("prepare %zu file(s): %s\n", paths.size(),
                prep ? "ok" : prep.error().message.c_str());
    return prep ? 0 : 1;
  }
  if (command == "stats") {
    const bool json = i < argc && std::strcmp(argv[i], "--json") == 0;
    const auto stats = client.Stats();
    if (!stats) {
      std::fprintf(stderr, "stats: %s\n", stats.error().message.c_str());
      return 1;
    }
    if (json) {
      std::printf("{\"nodes\":%u,\"metrics\":%s}\n", stats.value().nodeCount,
                  stats.value().snapshot.ToJson().c_str());
    } else {
      std::printf("cluster: %u node(s)\n%s", stats.value().nodeCount,
                  stats.value().snapshot.ToText().c_str());
    }
    return 0;
  }
  if (command == "purge" || command == "cachestat") {
    proto::PcacheAdminOp op = proto::PcacheAdminOp::kStat;
    std::string path;
    if (command == "purge") {
      if (i < argc) {
        op = proto::PcacheAdminOp::kPurgePath;
        path = argv[i];
      } else {
        op = proto::PcacheAdminOp::kPurgeAll;
      }
    }
    const auto resp = client.CacheAdmin(op, path);
    if (!resp) {
      std::fprintf(stderr, "%s: %s\n", command.c_str(), resp.error().message.c_str());
      return 1;
    }
    if (command == "purge") {
      std::printf("purged %llu block(s); ",
                  static_cast<unsigned long long>(resp.value().blocksPurged));
    }
    std::printf("cache: %llu block(s), %llu bytes "
                "(dram %llu blk / %llu B; disk %llu blk / %llu B)\n",
                static_cast<unsigned long long>(resp.value().blockCount),
                static_cast<unsigned long long>(resp.value().usedBytes),
                static_cast<unsigned long long>(resp.value().dramBlockCount),
                static_cast<unsigned long long>(resp.value().dramUsedBytes),
                static_cast<unsigned long long>(resp.value().diskBlockCount),
                static_cast<unsigned long long>(resp.value().diskUsedBytes));
    return 0;
  }
  if ((command == "drain" || command == "restore") && i < argc) {
    const bool restore = command == "restore";
    const auto resp = client.Drain(argv[i], restore);
    if (!resp) {
      std::fprintf(stderr, "%s: %s\n", command.c_str(), resp.error().message.c_str());
      return 1;
    }
    std::printf("%s %s: %s\n", command.c_str(), argv[i],
                resp.value().applied ? "applied"
                                     : "forwarded to supervisors (not a direct child)");
    return 0;
  }
  if (command == "fed" && i < argc) {
    const std::string sub = argv[i++];
    if (sub == "stat") {
      // Same StatsQuery as `stats`: pointed at a meta-manager it fans to
      // every subscribed cluster head and folds the replies.
      const bool json = i < argc && std::strcmp(argv[i], "--json") == 0;
      const auto stats = client.Stats();
      if (!stats) {
        std::fprintf(stderr, "fed stat: %s\n", stats.error().message.c_str());
        return 1;
      }
      if (json) {
        std::printf("{\"nodes\":%u,\"metrics\":%s}\n", stats.value().nodeCount,
                    stats.value().snapshot.ToJson().c_str());
      } else {
        std::printf("federation: %u node(s) across %lld cluster(s)\n%s",
                    stats.value().nodeCount,
                    static_cast<long long>(stats.value().snapshot.Gauge("fed.clusters")),
                    stats.value().snapshot.ToText().c_str());
      }
      return 0;
    }
    if (sub == "locate" && i < argc) {
      // Raw FedLocate against the meta from a scratch endpoint (the xrd
      // client never sees FedRedirect, so it cannot issue this itself).
      struct LocateSink : net::MessageSink {
        std::promise<proto::FedRedirect> prom;
        void OnMessage(net::NodeAddr, proto::Message m) override {
          if (const auto* r = std::get_if<proto::FedRedirect>(&m)) prom.set_value(*r);
        }
        void OnPeerDown(net::NodeAddr) override {}
      } sink;
      auto fut = sink.prom.get_future();
      const net::NodeAddr addr = cfg.addr + 1;
      const tools::EndpointGuard locateGuard(fabric, addr, executor);
      if (!fabric.Register(addr, &sink, &executor)) {
        std::fprintf(stderr, "cannot bind client port %u\n", basePort + addr);
        return 1;
      }
      proto::FedLocate req;
      req.reqId = 1;
      req.path = argv[i];
      req.mode = static_cast<std::uint8_t>(cms::AccessMode::kRead);
      fabric.Send(addr, cfg.head, req);
      if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
        std::fprintf(stderr, "fed locate: timeout\n");
        return 1;
      }
      const proto::FedRedirect resp = fut.get();
      if (resp.status == proto::XrdStatus::kRedirect) {
        std::printf("%s -> cluster '%s' (id %d), head addr %u\n", argv[i],
                    resp.cluster.c_str(), resp.clusterId, resp.headAddr);
        return 0;
      }
      if (resp.status == proto::XrdStatus::kWait) {
        std::printf("%s: wait %lld ms (meta still querying cluster heads)\n",
                    argv[i],
                    static_cast<long long>(resp.waitNs / 1'000'000));
        return 0;
      }
      std::fprintf(stderr, "fed locate %s: %s\n", argv[i], XrdErrName(resp.err));
      return 1;
    }
    return Usage();
  }
  if (command == "ls" && i < argc) {
    if (cfg.cnsd == 0) {
      std::fprintf(stderr, "ls needs --cnsd N (managers keep a flat namespace;\n"
                           "global listing is served by the namespace daemon)\n");
      return 2;
    }
    std::promise<std::pair<proto::XrdErr, std::vector<std::string>>> prom;
    auto fut = prom.get_future();
    executor.Post([&client, &prom, prefix = std::string(argv[i])] {
      client.async().List(prefix, [&prom](proto::XrdErr err,
                                          std::vector<std::string> names) {
        prom.set_value({err, std::move(names)});
      });
    });
    if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      std::fprintf(stderr, "ls: timeout\n");
      return 1;
    }
    const auto [err, names] = fut.get();
    if (err != proto::XrdErr::kNone) {
      std::fprintf(stderr, "ls: error %d\n", static_cast<int>(err));
      return 1;
    }
    for (const auto& name : names) std::printf("%s\n", name.c_str());
    return 0;
  }
  return Usage();
}
