#include "xrd/node_config_loader.h"

#include <set>
#include <sstream>

namespace scalla::xrd {
namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Byte sizes with optional k/m/g suffix ("64k", "256m", "1g", "4096").
std::optional<std::uint64_t> ParseSize(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return std::nullopt;
  std::uint64_t scale = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': scale = 1024ull; break;
      case 'm': case 'M': scale = 1024ull * 1024; break;
      case 'g': case 'G': scale = 1024ull * 1024 * 1024; break;
      default: return std::nullopt;
    }
    if (*(end + 1) != '\0') return std::nullopt;
  }
  return value * scale;
}

}  // namespace

std::optional<LoadedNodeConfig> LoadNodeConfig(const std::string& text,
                                               std::string* error) {
  const auto parsed = util::Config::Parse(text, error);
  if (!parsed.has_value()) return std::nullopt;

  static const std::set<std::string> kKnown = {
      "all.role",      "all.name",      "all.addr",     "all.manager",
      "all.export",    "cms.lifetime",  "cms.delay",    "cms.sweep",
      "cms.dropdelay", "cms.selection", "cms.ping",     "cms.misslimit",
      "cms.suspendload", "cms.resumeload", "cms.cachebytes",
      "xrd.allowwrite", "xrd.loadreport",
      "oss.localroot", "all.cnsd",      "pcache.blocksize", "pcache.capacity",
      "pcache.hiwater", "pcache.lowater", "pcache.readahead",
      "pcache.disk.capacity", "pcache.disk.path", "pcache.disk.hiwater",
      "pcache.disk.lowater", "pcache.ghost",
      "fabric.connecttimeout", "fabric.writetimeout", "fabric.queuedepth",
      "fabric.idletimeout",    "fabric.sendbuf",
      "fed.meta",      "fed.cluster",   "fed.locality"};
  for (const auto& [key, _] : parsed->entries()) {
    if (kKnown.count(key) == 0) {
      Fail(error, "unknown directive: " + key);
      return std::nullopt;
    }
  }

  LoadedNodeConfig out;
  NodeConfig& cfg = out.node;

  const auto role = parsed->GetString("all.role");
  if (!role.has_value()) {
    Fail(error, "all.role is required");
    return std::nullopt;
  }
  if (*role == "manager") {
    cfg.role = NodeRole::kManager;
  } else if (*role == "supervisor") {
    cfg.role = NodeRole::kSupervisor;
  } else if (*role == "server") {
    cfg.role = NodeRole::kServer;
  } else if (*role == "proxy") {
    cfg.role = NodeRole::kProxy;
  } else if (*role == "meta") {
    // The federation tier: serves no data and exports no paths of its
    // own, so the export/manager requirements below do not apply.
    cfg.role = NodeRole::kManager;
    out.isMeta = true;
  } else {
    Fail(error, "all.role must be manager|supervisor|server|proxy|meta, got " + *role);
    return std::nullopt;
  }

  const auto addr = parsed->GetInt("all.addr");
  if (!addr.has_value() || *addr <= 0) {
    Fail(error, "all.addr (positive integer) is required");
    return std::nullopt;
  }
  cfg.addr = static_cast<net::NodeAddr>(*addr);
  cfg.name = parsed->GetStringOr("all.name", "node" + std::to_string(*addr));

  if (const auto managers = parsed->GetString("all.manager"); managers.has_value()) {
    std::istringstream in(*managers);
    std::string tok;
    std::vector<net::NodeAddr> parents;
    while (in >> tok) {
      const long value = std::strtol(tok.c_str(), nullptr, 10);
      if (value <= 0) {
        Fail(error, "all.manager entries must be positive integers");
        return std::nullopt;
      }
      parents.push_back(static_cast<net::NodeAddr>(value));
    }
    if (!parents.empty()) {
      cfg.parent = parents.front();
      cfg.extraParents.assign(parents.begin() + 1, parents.end());
    }
  }
  if (cfg.role != NodeRole::kManager && cfg.parent == 0) {
    Fail(error, "all.manager is required for supervisor/server roles");
    return std::nullopt;
  }

  const bool hasFedKey = parsed->Has("fed.meta") || parsed->Has("fed.cluster") ||
                         parsed->Has("fed.locality");
  if (hasFedKey && (cfg.role != NodeRole::kManager || out.isMeta)) {
    Fail(error, "fed.* directives only apply to the manager role");
    return std::nullopt;
  }
  if (const auto meta = parsed->GetInt("fed.meta"); meta.has_value()) {
    if (*meta <= 0) {
      Fail(error, "fed.meta must be a positive fabric address");
      return std::nullopt;
    }
    cfg.meta = static_cast<net::NodeAddr>(*meta);
  } else if (parsed->Has("fed.meta")) {
    Fail(error, "fed.meta must be an integer");
    return std::nullopt;
  }
  cfg.clusterName = parsed->GetStringOr("fed.cluster", "");
  if (const auto locality = parsed->GetInt("fed.locality"); locality.has_value()) {
    if (*locality < 0) {
      Fail(error, "fed.locality must be non-negative (0 = nearest)");
      return std::nullopt;
    }
    cfg.locality = static_cast<std::uint32_t>(*locality);
  }
  if ((parsed->Has("fed.cluster") || parsed->Has("fed.locality")) && cfg.meta == 0) {
    Fail(error, "fed.cluster/fed.locality require fed.meta");
    return std::nullopt;
  }

  cfg.exports.clear();  // the struct default ("/") must be stated explicitly
  if (const auto exports = parsed->GetString("all.export"); exports.has_value()) {
    std::istringstream in(*exports);
    std::string tok;
    while (in >> tok) cfg.exports.push_back(tok);
  }
  if (cfg.exports.empty() && cfg.role != NodeRole::kProxy && !out.isMeta) {
    Fail(error, "all.export must list at least one prefix");
    return std::nullopt;
  }

  cfg.cms.lifetime = parsed->GetDurationOr("cms.lifetime", cfg.cms.lifetime);
  cfg.cms.deadline = parsed->GetDurationOr("cms.delay", cfg.cms.deadline);
  cfg.cms.sweepPeriod = parsed->GetDurationOr("cms.sweep", cfg.cms.sweepPeriod);
  cfg.cms.dropDelay = parsed->GetDurationOr("cms.dropdelay", cfg.cms.dropDelay);

  if (parsed->Has("cms.ping")) {
    const auto ping = parsed->GetDuration("cms.ping");
    if (!ping.has_value() || *ping < Duration::zero()) {
      Fail(error, "cms.ping must be a non-negative duration (0 disables)");
      return std::nullopt;
    }
    cfg.cms.ping = *ping;
  }
  if (const auto limit = parsed->GetInt("cms.misslimit"); limit.has_value()) {
    if (*limit < 1) {
      Fail(error, "cms.misslimit must be at least 1");
      return std::nullopt;
    }
    cfg.cms.missLimit = static_cast<int>(*limit);
  } else if (parsed->Has("cms.misslimit")) {
    Fail(error, "cms.misslimit must be an integer");
    return std::nullopt;
  }
  if (const auto load = parsed->GetInt("cms.suspendload"); load.has_value()) {
    if (*load < 0) {
      Fail(error, "cms.suspendload must be non-negative (0 disables)");
      return std::nullopt;
    }
    cfg.cms.suspendLoad = static_cast<std::uint32_t>(*load);
  }
  if (const auto load = parsed->GetInt("cms.resumeload"); load.has_value()) {
    if (*load < 0) {
      Fail(error, "cms.resumeload must be non-negative");
      return std::nullopt;
    }
    cfg.cms.resumeLoad = static_cast<std::uint32_t>(*load);
  }
  if (cfg.cms.suspendLoad > 0 && cfg.cms.resumeLoad >= cfg.cms.suspendLoad) {
    Fail(error, "cms.resumeload must be below cms.suspendload");
    return std::nullopt;
  }
  if (parsed->Has("cms.cachebytes")) {
    const auto budget = ParseSize(parsed->GetStringOr("cms.cachebytes", ""));
    if (!budget.has_value()) {
      Fail(error, "cms.cachebytes must be a byte size (e.g. 256m; 0 = unbounded)");
      return std::nullopt;
    }
    // A non-zero budget below 1 MiB cannot hold the initial bucket table
    // plus one arena growth and would thrash the emergency evictor.
    if (*budget != 0 && *budget < 1024ull * 1024) {
      Fail(error, "cms.cachebytes must be 0 (unbounded) or at least 1m");
      return std::nullopt;
    }
    cfg.cms.cacheBytes = static_cast<std::size_t>(*budget);
  }

  if (const auto sel = parsed->GetString("cms.selection"); sel.has_value()) {
    if (*sel == "roundrobin") {
      cfg.selection = cms::SelectCriterion::kRoundRobin;
    } else if (*sel == "load") {
      cfg.selection = cms::SelectCriterion::kLoad;
    } else if (*sel == "space") {
      cfg.selection = cms::SelectCriterion::kSpace;
    } else if (*sel == "frequency") {
      cfg.selection = cms::SelectCriterion::kFrequency;
    } else if (*sel == "random") {
      cfg.selection = cms::SelectCriterion::kRandom;
    } else {
      Fail(error, "cms.selection: unknown criterion " + *sel);
      return std::nullopt;
    }
  }

  if (const auto allow = parsed->GetBool("xrd.allowwrite"); allow.has_value()) {
    cfg.allowWrite = *allow;
  } else if (parsed->Has("xrd.allowwrite")) {
    Fail(error, "xrd.allowwrite must be a boolean");
    return std::nullopt;
  }
  cfg.loadReportInterval =
      parsed->GetDurationOr("xrd.loadreport", cfg.loadReportInterval);
  if (const auto cnsd = parsed->GetInt("all.cnsd"); cnsd.has_value()) {
    cfg.cnsd = static_cast<net::NodeAddr>(*cnsd);
  }

  out.localRoot = parsed->GetStringOr("oss.localroot", "");
  if (!out.localRoot.empty() && cfg.role != NodeRole::kServer) {
    Fail(error, "oss.localroot only applies to the server role");
    return std::nullopt;
  }

  bool hasPcacheKey = false;
  for (const auto& [key, _] : parsed->entries()) {
    if (key.rfind("pcache.", 0) == 0) hasPcacheKey = true;
  }
  if (hasPcacheKey && cfg.role != NodeRole::kProxy) {
    Fail(error, "pcache.* directives only apply to the proxy role");
    return std::nullopt;
  }
  if (cfg.role == NodeRole::kProxy) {
    pcache::BlockCacheConfig& dram = out.pcacheTiered.dram;
    if (const auto bs = parsed->GetString("pcache.blocksize"); bs.has_value()) {
      const auto size = ParseSize(*bs);
      if (!size.has_value() || *size == 0) {
        Fail(error, "pcache.blocksize: bad size " + *bs);
        return std::nullopt;
      }
      dram.blockSize = static_cast<std::uint32_t>(*size);
    }
    if (const auto cap = parsed->GetString("pcache.capacity"); cap.has_value()) {
      const auto size = ParseSize(*cap);
      if (!size.has_value() || *size == 0) {
        Fail(error, "pcache.capacity: bad size " + *cap);
        return std::nullopt;
      }
      dram.capacityBytes = *size;
    }
    dram.highWatermark = parsed->GetDoubleOr("pcache.hiwater", dram.highWatermark);
    dram.lowWatermark = parsed->GetDoubleOr("pcache.lowater", dram.lowWatermark);
    if (const auto cap = parsed->GetString("pcache.disk.capacity"); cap.has_value()) {
      const auto size = ParseSize(*cap);
      if (!size.has_value()) {
        Fail(error, "pcache.disk.capacity: bad size " + *cap + " (0 disables)");
        return std::nullopt;
      }
      out.pcacheTiered.diskCapacityBytes = *size;
    }
    out.pcacheTiered.diskHighWatermark = parsed->GetDoubleOr(
        "pcache.disk.hiwater", out.pcacheTiered.diskHighWatermark);
    out.pcacheTiered.diskLowWatermark = parsed->GetDoubleOr(
        "pcache.disk.lowater", out.pcacheTiered.diskLowWatermark);
    if (const auto ghost = parsed->GetInt("pcache.ghost"); ghost.has_value()) {
      if (*ghost < 0) {
        Fail(error, "pcache.ghost must be non-negative (0 = auto)");
        return std::nullopt;
      }
      out.pcacheTiered.ghostEntries = static_cast<std::size_t>(*ghost);
    } else if (parsed->Has("pcache.ghost")) {
      Fail(error, "pcache.ghost must be an integer entry count");
      return std::nullopt;
    }
    out.pcacheDiskRoot = parsed->GetStringOr("pcache.disk.path", "");
    if (out.pcacheTiered.diskCapacityBytes > 0 && out.pcacheDiskRoot.empty()) {
      Fail(error, "pcache.disk.capacity requires pcache.disk.path");
      return std::nullopt;
    }
    if (const auto valid = pcache::ValidateTieredConfig(out.pcacheTiered);
        !valid.ok()) {
      Fail(error, valid.error().message);
      return std::nullopt;
    }
    out.pcacheReadAhead =
        static_cast<int>(parsed->GetIntOr("pcache.readahead", 0));
  }

  // fabric.* parses into one net::FabricOptions shared by every transport;
  // range checking is centralized in net::ValidateFabricOptions below so
  // the loader and transport constructors agree on what is legal.
  Duration connectTimeout(out.fabric.connectTimeout);
  Duration writeTimeout(out.fabric.writeTimeout);
  Duration idleTimeout(out.fabric.idleTimeout);
  for (const auto& [key, dest] :
       {std::pair<const char*, Duration*>{"fabric.connecttimeout", &connectTimeout},
        {"fabric.writetimeout", &writeTimeout},
        {"fabric.idletimeout", &idleTimeout}}) {
    if (!parsed->Has(key)) continue;
    const auto value = parsed->GetDuration(key);
    if (!value.has_value()) {
      Fail(error, std::string(key) + " must be a duration");
      return std::nullopt;
    }
    *dest = *value;
  }
  out.fabric.connectTimeout =
      std::chrono::duration_cast<std::chrono::milliseconds>(connectTimeout);
  out.fabric.writeTimeout =
      std::chrono::duration_cast<std::chrono::milliseconds>(writeTimeout);
  out.fabric.idleTimeout =
      std::chrono::duration_cast<std::chrono::milliseconds>(idleTimeout);
  if (parsed->Has("fabric.queuedepth")) {
    const auto depth = parsed->GetInt("fabric.queuedepth");
    if (!depth.has_value() || *depth <= 0) {
      Fail(error, "fabric.queuedepth must be a positive integer");
      return std::nullopt;
    }
    out.fabric.maxQueuedMessages = static_cast<std::size_t>(*depth);
  }
  if (parsed->Has("fabric.sendbuf")) {
    const auto size = ParseSize(parsed->GetStringOr("fabric.sendbuf", ""));
    if (!size.has_value()) {
      Fail(error, "fabric.sendbuf must be a byte size (0 = OS default)");
      return std::nullopt;
    }
    out.fabric.sendBufferBytes = static_cast<std::size_t>(*size);
  }
  if (const auto valid = net::ValidateFabricOptions(out.fabric); !valid.ok()) {
    Fail(error, valid.error().message);
    return std::nullopt;
  }
  return out;
}

}  // namespace scalla::xrd
