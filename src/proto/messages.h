// Protocol messages. Two protocol families share one transport:
//   - cms: node-to-node cluster management (login, locate queries, have
//     responses, load reports) — the cmsd protocol;
//   - xrd: client-to-node file access (open/read/write/close/stat/...,
//     with redirect/wait responses) — the xrootd protocol.
// Messages are plain structs gathered into a std::variant; the in-process
// transports pass them directly, the TCP transport serializes them via
// proto/wire.h.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "obs/snapshot.h"
#include "util/types.h"

namespace scalla::proto {

// --------------------------------------------------------------------
// cms protocol (node <-> node)

/// Subordinate -> parent: join the cluster, declaring export prefixes.
/// Registration is deliberately light — path prefixes only, never a file
/// manifest (paper section V).
struct CmsLogin {
  std::string name;                   // stable identity ("host:port")
  std::vector<std::string> exports;   // exported path prefixes
  bool allowWrite = true;
  bool isSupervisor = false;          // subordinate heads its own subtree
  std::uint32_t locality = 0;         // at a meta-manager: distance weight, lower = near
};

struct CmsLoginResp {
  bool ok = false;
  std::int32_t slot = -1;   // assigned server slot (bit position)
  std::string error;
  // When a cluster set is full (64 members, paper section II-B1), the
  // head redirects the newcomer to one of its supervisor subordinates,
  // keeping "nodes can be added easily" true past 64 servers.
  std::uint32_t redirect = 0;  // try logging in here instead (0 = none)
};

/// Parent -> subordinates: "do you have <path>?" (request-rarely-respond:
/// holders answer CmsHave; everyone else stays silent).
struct CmsQuery {
  std::string path;
  std::uint32_t hash = 0;   // CRC32, forwarded so responders can echo it
  std::uint8_t mode = 0;    // AccessMode
  bool refresh = false;     // supervisors refresh their subtree view too
};

/// Subordinate -> parent: positive response. Also used as an unsolicited
/// new-file notification (newfile=true), which supervisors propagate
/// upward so manager caches learn about creations without re-flooding.
struct CmsHave {
  std::string path;
  std::uint32_t hash = 0;   // echoed so the manager never re-hashes
  bool pending = false;     // file is being staged (V_p rather than V_h)
  bool allowWrite = true;
  bool newfile = false;
};

/// Subordinate -> parent: explicit negative response. Only emitted by the
/// always-respond baseline protocol (experiment E06); real Scalla treats
/// non-response as "no".
struct CmsNoHave {
  std::string path;
  std::uint32_t hash = 0;
};

/// Subordinate -> parent: the file is gone (unlinked / lost).
struct CmsGone {
  std::string path;
};

/// Subordinate -> parent: periodic load/space report used for selection.
/// Routed by `name` (stable identity) rather than connection slot, so a
/// report that races a re-login still lands on the right member.
struct CmsLoad {
  std::uint32_t load = 0;
  std::uint64_t freeSpace = 0;
  std::string name;  // reporter's stable identity ("" = route by sender addr)
};

// --------------------------------------------------------------------
// xrd protocol (client <-> node)

enum class XrdStatus : std::uint8_t {
  kOk = 0,
  kRedirect = 1,  // re-issue the request at `host`
  kWait = 2,      // wait `waitNs`, then retry here
  kError = 3,
};

enum class XrdErr : std::int32_t {
  kNone = 0,
  kNotFound = 2,       // ENOENT
  kIo = 5,             // EIO
  kExists = 17,        // EEXIST
  kInvalid = 22,       // EINVAL
  kNoSpace = 28,       // ENOSPC
  kLoop = 40,          // ELOOP: redirect chain exceeded client::kMaxRedirects
  kStale = 116,        // ESTALE: retry from a consistent state
};

struct XrdOpen {
  std::uint64_t reqId = 0;
  std::string path;
  std::uint8_t mode = 0;      // AccessMode
  bool create = false;
  bool refresh = false;       // ask for a cache refresh (client recovery)
  std::uint32_t avoidNode = 0;  // fabric address of the node that failed (0 = none)
};

struct XrdOpenResp {
  std::uint64_t reqId = 0;
  XrdStatus status = XrdStatus::kError;
  XrdErr err = XrdErr::kNone;
  std::uint32_t redirectNode = 0;  // transport address of the target node
  std::int64_t waitNs = 0;
  std::uint64_t fileHandle = 0;
  std::string message;
};

struct XrdRead {
  std::uint64_t reqId = 0;
  std::uint64_t fileHandle = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
};

struct XrdReadResp {
  std::uint64_t reqId = 0;
  XrdErr err = XrdErr::kNone;
  std::string data;
};

struct XrdWrite {
  std::uint64_t reqId = 0;
  std::uint64_t fileHandle = 0;
  std::uint64_t offset = 0;
  std::string data;
};

struct XrdWriteResp {
  std::uint64_t reqId = 0;
  XrdErr err = XrdErr::kNone;
  std::uint32_t written = 0;
};

/// One segment of a vector read.
struct ReadSeg {
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  bool operator==(const ReadSeg&) const = default;
};

/// Vector read: many (offset, length) segments in one request — the
/// pattern ROOT analysis produces (sparse branch reads), served in a
/// single round trip.
struct XrdReadV {
  std::uint64_t reqId = 0;
  std::uint64_t fileHandle = 0;
  std::vector<ReadSeg> segments;
};

struct XrdReadVResp {
  std::uint64_t reqId = 0;
  XrdErr err = XrdErr::kNone;
  std::vector<std::string> chunks;  // one per requested segment
};

/// Checksum query (xrootd's kXR_query checksum): managers redirect it
/// like any meta-data operation; the data server computes CRC32 over the
/// file content. `refresh` and `avoidNode` carry the client recovery, as
/// on XrdOpen (so do XrdStat's and XrdUnlink's).
struct XrdChecksum {
  std::uint64_t reqId = 0;
  std::string path;
  bool refresh = false;
  std::uint32_t avoidNode = 0;
};

struct XrdChecksumResp {
  std::uint64_t reqId = 0;
  XrdStatus status = XrdStatus::kError;
  XrdErr err = XrdErr::kNone;
  std::uint32_t redirectNode = 0;
  std::int64_t waitNs = 0;
  std::uint32_t crc32 = 0;
};

struct XrdClose {
  std::uint64_t reqId = 0;
  std::uint64_t fileHandle = 0;
};

struct XrdCloseResp {
  std::uint64_t reqId = 0;
  XrdErr err = XrdErr::kNone;
};

struct XrdStat {
  std::uint64_t reqId = 0;
  std::string path;
  bool refresh = false;
  std::uint32_t avoidNode = 0;
};

struct XrdStatResp {
  std::uint64_t reqId = 0;
  XrdStatus status = XrdStatus::kError;  // managers redirect stats too
  XrdErr err = XrdErr::kNone;
  std::uint32_t redirectNode = 0;
  std::int64_t waitNs = 0;
  std::uint64_t size = 0;
};

struct XrdUnlink {
  std::uint64_t reqId = 0;
  std::string path;
  bool refresh = false;
  std::uint32_t avoidNode = 0;
};

struct XrdUnlinkResp {
  std::uint64_t reqId = 0;
  XrdStatus status = XrdStatus::kError;
  XrdErr err = XrdErr::kNone;
  std::uint32_t redirectNode = 0;
  std::int64_t waitNs = 0;
};

/// Parallel prepare (paper section III-B2): a list of files that will be
/// needed; the node spawns parallel background look-ups so the client
/// externally observes at most one full delay.
struct XrdPrepare {
  std::uint64_t reqId = 0;
  std::vector<std::string> paths;
  std::uint8_t mode = 0;
};

struct XrdPrepareResp {
  std::uint64_t reqId = 0;
  XrdErr err = XrdErr::kNone;
};

/// Global namespace listing, served by the Cluster Name Space daemon
/// (paper footnote 3) — NOT by managers, which keep a flat namespace.
struct CnsList {
  std::uint64_t reqId = 0;
  std::string prefix;
};

struct CnsListResp {
  std::uint64_t reqId = 0;
  XrdErr err = XrdErr::kNone;
  std::vector<std::string> names;
};

// --------------------------------------------------------------------
// Observability (any peer <-> node)

/// "Send me your subtree's metrics." A manager or supervisor fans the query
/// out to its online subordinates, merges their replies into its own
/// snapshot, and answers with the aggregate; a data server replies
/// immediately. Clients use the same frame against the head manager, so one
/// query yields a whole-cluster view.
struct StatsQuery {
  std::uint64_t reqId = 0;
};

struct StatsReply {
  std::uint64_t reqId = 0;
  std::uint32_t nodeCount = 0;  // nodes folded into this snapshot
  obs::MetricsSnapshot snapshot;
};

// --------------------------------------------------------------------
// Proxy cache administration (client <-> pcache proxy)

enum class PcacheAdminOp : std::uint8_t {
  kStat = 0,       // report occupancy only
  kPurgePath = 1,  // drop every cached block of `path`
  kPurgeAll = 2,   // drop the whole cache
};

/// Admin frame for a caching proxy (pcache tier). Regular nodes answer it
/// with kInvalid so a mistargeted purge fails loudly instead of silently.
struct PcacheAdmin {
  std::uint64_t reqId = 0;
  PcacheAdminOp op = PcacheAdminOp::kStat;
  std::string path;  // kPurgePath only
};

struct PcacheAdminResp {
  std::uint64_t reqId = 0;
  XrdErr err = XrdErr::kNone;       // kInvalid when the target is not a proxy
  std::uint64_t blocksPurged = 0;
  std::uint64_t usedBytes = 0;      // post-operation cache occupancy (both tiers)
  std::uint64_t blockCount = 0;
  // Per-tier breakdown (tiered pcache; zero on a DRAM-only proxy's disk side).
  std::uint64_t dramUsedBytes = 0;
  std::uint64_t dramBlockCount = 0;
  std::uint64_t diskUsedBytes = 0;
  std::uint64_t diskBlockCount = 0;
};

// --------------------------------------------------------------------
// Liveness & membership administration (cms protocol)

/// Parent -> subordinate: heartbeat probe. A subordinate that misses
/// `cms.misslimit` consecutive probes is declared dead (its cache bits are
/// cleared through the correction vector, like CmsGone but for every path).
/// With `reconnect` set the parent believes the subordinate is offline and
/// is inviting it to log in again (the self-healing rejoin path).
struct CmsPing {
  std::uint64_t seq = 0;
  bool reconnect = false;
};

/// Subordinate -> parent: heartbeat answer. Piggybacks the load/space
/// numbers so selection metrics stay fresh even between CmsLoad reports.
struct CmsPong {
  std::uint64_t seq = 0;
  std::uint32_t load = 0;
  std::uint64_t freeSpace = 0;
};

/// Parent -> supervisor subordinates: "<server> was declared dead"; each
/// supervisor clears the server from its own membership/cache and fans the
/// notice further down its subtree.
struct CmsDeath {
  std::string server;
};

/// Operator -> head (or head -> supervisors, reqId=0): gracefully drain a
/// server out of selection (restore=false) or re-admit it (restore=true).
/// A drained server stays logged in and cached; it just stops winning
/// selection until restored.
struct CmsDrain {
  std::uint64_t reqId = 0;  // 0 = fanned down the tree, no reply expected
  std::string server;
  bool restore = false;
};

struct CmsDrainResp {
  std::uint64_t reqId = 0;
  bool ok = false;
  bool applied = false;  // false: unknown here, forwarded to subtree heads
  std::string error;
};

// --------------------------------------------------------------------
// Federation locate (tool <-> meta-manager). A cluster head joins a
// meta-manager with the cms family above (CmsLogin, CmsQuery, CmsHave,
// CmsGone, CmsPing); only the explicit locate below is the meta's own.

/// Client/tool -> meta-manager: explicit "which cluster owns <path>?"
/// (the fed-level analogue of an XrdOpen that never opens). Used by
/// `scalla_cli fed locate` and by tests probing the meta's cache.
struct FedLocate {
  std::uint64_t reqId = 0;
  std::string path;
  std::uint8_t mode = 0;        // AccessMode
  bool refresh = false;
  std::uint32_t avoidCluster = 0;  // head addr that just failed (0 = none)
};

struct FedRedirect {
  std::uint64_t reqId = 0;
  XrdStatus status = XrdStatus::kError;
  XrdErr err = XrdErr::kNone;
  std::int32_t clusterId = -1;
  std::string cluster;          // owning cluster's stable identity
  std::uint32_t headAddr = 0;   // fabric address of that cluster's head
  std::int64_t waitNs = 0;      // kWait: retry after this delay
};

using Message =
    std::variant<CmsLogin, CmsLoginResp, CmsQuery, CmsHave, CmsNoHave, CmsGone, CmsLoad,
                 XrdOpen, XrdOpenResp, XrdRead, XrdReadResp, XrdWrite, XrdWriteResp,
                 XrdClose, XrdCloseResp, XrdStat, XrdStatResp, XrdUnlink, XrdUnlinkResp,
                 XrdPrepare, XrdPrepareResp, CnsList, CnsListResp, XrdReadV, XrdReadVResp,
                 XrdChecksum, XrdChecksumResp, StatsQuery, StatsReply, PcacheAdmin,
                 PcacheAdminResp, CmsPing, CmsPong, CmsDeath, CmsDrain, CmsDrainResp,
                 FedLocate, FedRedirect>;

/// Human-readable tag for logging.
const char* MessageName(const Message& m);

}  // namespace scalla::proto
