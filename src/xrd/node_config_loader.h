// Directive-file configuration for Scalla nodes, in the spirit of
// xrootd's xrd.cf:
//
//   all.role        server            # manager | supervisor | server
//   all.name        dataserver07
//   all.addr        12                # fabric address (TCP: basePort+addr)
//   all.manager     1                 # parent address(es), space-separated
//   all.export      /store /scratch
//   cms.lifetime    8h
//   cms.delay       5s
//   cms.sweep       133ms
//   cms.dropdelay   10m
//   cms.cachebytes  256m              # location-cache byte budget (0 = unbounded)
//   cms.selection   roundrobin        # load | space | frequency | random
//   xrd.allowwrite  true
//   xrd.loadreport  30s
//   oss.localroot   /data/xrd         # serve a real directory (server role)
//
// A proxy cache tier (all.role proxy) additionally understands:
//
//   pcache.blocksize  64k              # cache block size
//   pcache.capacity   256m             # DRAM-tier cache bytes
//   pcache.hiwater    0.95             # DRAM eviction trigger (fraction)
//   pcache.lowater    0.80             # DRAM eviction target (fraction)
//   pcache.readahead  4                # blocks prefetched past a miss
//
// and, for the two-tier cache (docs/PCACHE.md), an optional disk tier
// that DRAM victims spill into and first-touch blocks land on until the
// ghost list proves reuse:
//
//   pcache.disk.capacity  16g          # disk-tier bytes (0 disables)
//   pcache.disk.path      /data/pcache # backing directory (required if on)
//   pcache.disk.hiwater   0.95         # disk eviction trigger (fraction)
//   pcache.disk.lowater   0.80         # disk eviction target (fraction)
//   pcache.ghost          65536        # ghost-list entries (0 = auto)
//
// (all.manager names the origin cluster heads for a proxy.)
//
// Federation (see docs/FEDERATION.md). A cluster head logs into a
// meta-manager, its parent, with:
//
//   fed.meta        1                 # the meta-manager's fabric address
//   fed.cluster     site-a            # global cluster name at the meta
//   fed.locality    0                 # distance weight (0 = nearest)
//
// (fed.meta sets the manager's parent, so a manager takes fed.meta or
// all.manager, not both). The meta tier is a manager whose members are
// cluster heads:
//
//   all.role        meta              # fronts up to 64 cluster heads
//
// loads NodeRole::kManager with no parent; it needs no all.export and
// takes no fed.* or all.manager directive.
//
// Transport tuning (any role; parsed once into net::FabricOptions and
// validated with net::ValidateFabricOptions, so bad values fail loudly):
//
//   fabric.connecttimeout  1s          # non-blocking connect deadline
//   fabric.writetimeout    2s          # write-progress deadline
//   fabric.queuedepth      4096        # per-peer bounded outbound queue
//   fabric.idletimeout     0           # idle-connection reap (0 disables)
//   fabric.sendbuf         0           # SO_SNDBUF bytes (0 = OS default)
//
// Unknown keys are reported as errors so typos do not silently default, and
// so is a repeated directive, which would silently replace the earlier line:
// a directive's values share its one line. An address (all.addr,
// all.manager, fed.meta, all.cnsd) is a whole number from 1 to 4294967295.
#pragma once

#include <optional>
#include <string>

#include "net/tcp_fabric.h"
#include "pcache/tiered_cache.h"
#include "util/config.h"
#include "xrd/scalla_node.h"

namespace scalla::xrd {

struct LoadedNodeConfig {
  NodeConfig node;
  std::string localRoot;  // non-empty => back the server with LocalOss
  net::FabricOptions fabric;  // fabric.* transport tuning
  // Proxy role only (node.role == NodeRole::kProxy). `pcacheTiered` is
  // validated with pcache::ValidateTieredConfig; a non-zero disk capacity
  // requires pcacheDiskRoot (the LocalOss directory backing the tier).
  pcache::TieredCacheConfig pcacheTiered;
  std::string pcacheDiskRoot;
  int pcacheReadAhead = 0;
};

/// Parses directive text into a node configuration. Returns std::nullopt
/// and fills *error on malformed input, unknown keys, or missing
/// requirements (role, addr; manager for non-manager roles).
std::optional<LoadedNodeConfig> LoadNodeConfig(const std::string& text,
                                               std::string* error);

}  // namespace scalla::xrd
