// Field lists for every protocol message, shared by the binary
// serializer (proto/wire.cc) and by tests that need to walk a message's
// fields generically (e.g. the seeded round-trip property test). Each
// message type has exactly one Visit overload naming its fields once, in
// declaration order; an archive is anything with a variadic
// `Fields(fs...)` member that dispatches per-field (write, read, fill
// with random values, ...).
#pragma once

#include "proto/messages.h"

namespace scalla::proto::wire {

// Unknown message types fail at compile time rather than serializing as
// nothing.
template <class Ar, class M>
void Visit(Ar& ar, M& m) = delete;

template <class Ar> void Visit(Ar& ar, CmsLogin& m) {
  ar.Fields(m.name, m.exports, m.allowWrite, m.isSupervisor, m.locality);
}
template <class Ar> void Visit(Ar& ar, CmsLoginResp& m) {
  ar.Fields(m.ok, m.slot, m.error, m.redirect);
}
template <class Ar> void Visit(Ar& ar, CmsQuery& m) {
  ar.Fields(m.path, m.hash, m.mode, m.refresh);
}
template <class Ar> void Visit(Ar& ar, CmsHave& m) {
  ar.Fields(m.path, m.hash, m.pending, m.allowWrite, m.newfile);
}
template <class Ar> void Visit(Ar& ar, CmsNoHave& m) { ar.Fields(m.path, m.hash); }
template <class Ar> void Visit(Ar& ar, CmsGone& m) { ar.Fields(m.path); }
template <class Ar> void Visit(Ar& ar, CmsLoad& m) {
  ar.Fields(m.load, m.freeSpace, m.name);
}
template <class Ar> void Visit(Ar& ar, XrdOpen& m) {
  ar.Fields(m.reqId, m.path, m.mode, m.create, m.refresh, m.avoidNode);
}
template <class Ar> void Visit(Ar& ar, XrdOpenResp& m) {
  ar.Fields(m.reqId, m.status, m.err, m.redirectNode, m.waitNs, m.fileHandle, m.message);
}
template <class Ar> void Visit(Ar& ar, XrdRead& m) {
  ar.Fields(m.reqId, m.fileHandle, m.offset, m.length);
}
template <class Ar> void Visit(Ar& ar, XrdReadResp& m) { ar.Fields(m.reqId, m.err, m.data); }
template <class Ar> void Visit(Ar& ar, XrdWrite& m) {
  ar.Fields(m.reqId, m.fileHandle, m.offset, m.data);
}
template <class Ar> void Visit(Ar& ar, XrdWriteResp& m) {
  ar.Fields(m.reqId, m.err, m.written);
}
template <class Ar> void Visit(Ar& ar, XrdClose& m) { ar.Fields(m.reqId, m.fileHandle); }
template <class Ar> void Visit(Ar& ar, XrdCloseResp& m) { ar.Fields(m.reqId, m.err); }
template <class Ar> void Visit(Ar& ar, XrdStat& m) {
  ar.Fields(m.reqId, m.path, m.refresh, m.avoidNode);
}
template <class Ar> void Visit(Ar& ar, XrdStatResp& m) {
  ar.Fields(m.reqId, m.status, m.err, m.redirectNode, m.waitNs, m.size);
}
template <class Ar> void Visit(Ar& ar, XrdUnlink& m) {
  ar.Fields(m.reqId, m.path, m.refresh, m.avoidNode);
}
template <class Ar> void Visit(Ar& ar, XrdUnlinkResp& m) {
  ar.Fields(m.reqId, m.status, m.err, m.redirectNode, m.waitNs);
}
template <class Ar> void Visit(Ar& ar, XrdPrepare& m) {
  ar.Fields(m.reqId, m.paths, m.mode);
}
template <class Ar> void Visit(Ar& ar, XrdPrepareResp& m) { ar.Fields(m.reqId, m.err); }
template <class Ar> void Visit(Ar& ar, CnsList& m) { ar.Fields(m.reqId, m.prefix); }
template <class Ar> void Visit(Ar& ar, CnsListResp& m) {
  ar.Fields(m.reqId, m.err, m.names);
}
template <class Ar> void Visit(Ar& ar, XrdReadV& m) {
  ar.Fields(m.reqId, m.fileHandle, m.segments);
}
template <class Ar> void Visit(Ar& ar, XrdReadVResp& m) {
  ar.Fields(m.reqId, m.err, m.chunks);
}
template <class Ar> void Visit(Ar& ar, XrdChecksum& m) {
  ar.Fields(m.reqId, m.path, m.refresh, m.avoidNode);
}
template <class Ar> void Visit(Ar& ar, XrdChecksumResp& m) {
  ar.Fields(m.reqId, m.status, m.err, m.redirectNode, m.waitNs, m.crc32);
}
template <class Ar> void Visit(Ar& ar, StatsQuery& m) { ar.Fields(m.reqId); }
template <class Ar> void Visit(Ar& ar, StatsReply& m) {
  ar.Fields(m.reqId, m.nodeCount, m.snapshot);
}
template <class Ar> void Visit(Ar& ar, PcacheAdmin& m) {
  ar.Fields(m.reqId, m.op, m.path);
}
template <class Ar> void Visit(Ar& ar, PcacheAdminResp& m) {
  ar.Fields(m.reqId, m.err, m.blocksPurged, m.usedBytes, m.blockCount,
            m.dramUsedBytes, m.dramBlockCount, m.diskUsedBytes, m.diskBlockCount);
}
template <class Ar> void Visit(Ar& ar, CmsPing& m) { ar.Fields(m.seq, m.reconnect); }
template <class Ar> void Visit(Ar& ar, CmsPong& m) {
  ar.Fields(m.seq, m.load, m.freeSpace);
}
template <class Ar> void Visit(Ar& ar, CmsDeath& m) { ar.Fields(m.server); }
template <class Ar> void Visit(Ar& ar, CmsDrain& m) {
  ar.Fields(m.reqId, m.server, m.restore);
}
template <class Ar> void Visit(Ar& ar, CmsDrainResp& m) {
  ar.Fields(m.reqId, m.ok, m.applied, m.error);
}
template <class Ar> void Visit(Ar& ar, FedLocate& m) {
  ar.Fields(m.reqId, m.path, m.mode, m.refresh, m.avoidCluster);
}
template <class Ar> void Visit(Ar& ar, FedRedirect& m) {
  ar.Fields(m.reqId, m.status, m.err, m.clusterId, m.cluster, m.headAddr, m.waitNs);
}

}  // namespace scalla::proto::wire
