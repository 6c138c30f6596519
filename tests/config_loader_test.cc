// Tests for the directive-file node configuration loader.
#include <gtest/gtest.h>

#include "xrd/node_config_loader.h"

namespace scalla::xrd {
namespace {

TEST(NodeConfigLoaderTest, FullServerConfig) {
  std::string error;
  const auto loaded = LoadNodeConfig(R"(
# data server
all.role        server
all.name        dataserver07
all.addr        12
all.manager     1 2
all.export      /store /scratch
cms.lifetime    4h
cms.delay       2s
cms.sweep       100ms
cms.dropdelay   5m
cms.selection   load
xrd.allowwrite  false
xrd.loadreport  30s
oss.localroot   /data/xrd
)",
                                     &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const NodeConfig& cfg = loaded->node;
  EXPECT_EQ(cfg.role, NodeRole::kServer);
  EXPECT_EQ(cfg.name, "dataserver07");
  EXPECT_EQ(cfg.addr, 12u);
  EXPECT_EQ(cfg.parent, 1u);
  EXPECT_EQ(cfg.extraParents, (std::vector<net::NodeAddr>{2}));
  EXPECT_EQ(cfg.exports, (std::vector<std::string>{"/store", "/scratch"}));
  EXPECT_EQ(cfg.cms.lifetime, Duration(std::chrono::hours(4)));
  EXPECT_EQ(cfg.cms.deadline, Duration(std::chrono::seconds(2)));
  EXPECT_EQ(cfg.cms.sweepPeriod, Duration(std::chrono::milliseconds(100)));
  EXPECT_EQ(cfg.cms.dropDelay, Duration(std::chrono::minutes(5)));
  EXPECT_EQ(cfg.selection, cms::SelectCriterion::kLoad);
  EXPECT_FALSE(cfg.allowWrite);
  EXPECT_EQ(cfg.loadReportInterval, Duration(std::chrono::seconds(30)));
  EXPECT_EQ(loaded->localRoot, "/data/xrd");
}

TEST(NodeConfigLoaderTest, MinimalManager) {
  std::string error;
  const auto loaded =
      LoadNodeConfig("all.role manager\nall.addr 1\nall.export /store\n", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->node.role, NodeRole::kManager);
  EXPECT_EQ(loaded->node.parent, 0u);
  EXPECT_EQ(loaded->node.name, "node1");  // defaulted from addr
  // Paper defaults survive when not overridden.
  EXPECT_EQ(loaded->node.cms.lifetime, Duration(std::chrono::hours(8)));
  EXPECT_EQ(loaded->node.cms.sweepPeriod, Duration(std::chrono::milliseconds(133)));
}

TEST(NodeConfigLoaderTest, FabricDirectivesParsed) {
  std::string error;
  const auto loaded = LoadNodeConfig(
      "all.role manager\nall.addr 1\nall.export /store\n"
      "fabric.connecttimeout 250ms\n"
      "fabric.writetimeout 5s\n"
      "fabric.queuedepth 1024\n"
      "fabric.idletimeout 30s\n"
      "fabric.sendbuf 64k\n",
      &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->fabric.connectTimeout, std::chrono::milliseconds(250));
  EXPECT_EQ(loaded->fabric.writeTimeout, std::chrono::milliseconds(5000));
  EXPECT_EQ(loaded->fabric.maxQueuedMessages, 1024u);
  EXPECT_EQ(loaded->fabric.idleTimeout, std::chrono::seconds(30));
  EXPECT_EQ(loaded->fabric.sendBufferBytes, 64u * 1024);
}

TEST(NodeConfigLoaderTest, FabricDefaultsWhenUnset) {
  std::string error;
  const auto loaded =
      LoadNodeConfig("all.role manager\nall.addr 1\nall.export /store\n", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const net::FabricOptions defaults;
  EXPECT_EQ(loaded->fabric.connectTimeout, defaults.connectTimeout);
  EXPECT_EQ(loaded->fabric.writeTimeout, defaults.writeTimeout);
  EXPECT_EQ(loaded->fabric.maxQueuedMessages, defaults.maxQueuedMessages);
  EXPECT_EQ(loaded->fabric.idleTimeout, defaults.idleTimeout);
  EXPECT_EQ(loaded->fabric.sendBufferBytes, defaults.sendBufferBytes);
}

TEST(NodeConfigLoaderTest, RejectsBadFabricValues) {
  const std::string base = "all.role manager\nall.addr 1\nall.export /store\n";
  std::string error;
  EXPECT_FALSE(
      LoadNodeConfig(base + "fabric.connecttimeout 0ms\n", &error).has_value());
  EXPECT_FALSE(
      LoadNodeConfig(base + "fabric.writetimeout -1s\n", &error).has_value());
  EXPECT_FALSE(LoadNodeConfig(base + "fabric.queuedepth 0\n", &error).has_value());
  EXPECT_FALSE(LoadNodeConfig(base + "fabric.queuedepth lots\n", &error).has_value());
  // The loop pool has a fixed size; the old sizing directive is unknown.
  EXPECT_FALSE(
      LoadNodeConfig(base + "fabric.loopthreads 2\n", &error).has_value());
  EXPECT_NE(error.find("unknown directive: fabric.loopthreads"), std::string::npos);
  EXPECT_FALSE(
      LoadNodeConfig(base + "fabric.idletimeout -5s\n", &error).has_value());
  EXPECT_NE(error.find("fabric.idletimeout"), std::string::npos);
  EXPECT_FALSE(
      LoadNodeConfig(base + "fabric.sendbuf many\n", &error).has_value());
}

TEST(NodeConfigLoaderTest, FabricIdleTimeoutZeroDisables) {
  std::string error;
  const auto loaded = LoadNodeConfig(
      "all.role manager\nall.addr 1\nall.export /store\n"
      "fabric.idletimeout 0s\n",
      &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->fabric.idleTimeout, Duration::zero());
}

TEST(NodeConfigLoaderTest, RejectsUnknownDirective) {
  std::string error;
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.addr 1\nall.export /\n"
                              "all.portt 99\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("all.portt"), std::string::npos);
}

TEST(NodeConfigLoaderTest, RequiresRoleAddrExport) {
  std::string error;
  EXPECT_FALSE(LoadNodeConfig("all.addr 1\nall.export /\n", &error).has_value());
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.export /\n", &error).has_value());
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.addr 1\n", &error).has_value());
}

TEST(NodeConfigLoaderTest, ServerNeedsManager) {
  std::string error;
  EXPECT_FALSE(
      LoadNodeConfig("all.role server\nall.addr 5\nall.export /\n", &error).has_value());
  EXPECT_NE(error.find("all.manager"), std::string::npos);
}

TEST(NodeConfigLoaderTest, RejectsBadRoleAndSelection) {
  std::string error;
  EXPECT_FALSE(LoadNodeConfig("all.role czar\nall.addr 1\nall.export /\n", &error)
                   .has_value());
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.addr 1\nall.export /\n"
                              "cms.selection dartboard\n",
                              &error)
                   .has_value());
}

TEST(NodeConfigLoaderTest, LocalRootOnlyForServers) {
  std::string error;
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.addr 1\nall.export /\n"
                              "oss.localroot /data\n",
                              &error)
                   .has_value());
}

TEST(NodeConfigLoaderTest, HeartbeatDirectivesParsed) {
  std::string error;
  const auto loaded = LoadNodeConfig(
      "all.role manager\nall.addr 1\nall.export /store\n"
      "cms.ping 500ms\n"
      "cms.misslimit 5\n"
      "cms.suspendload 200\n"
      "cms.resumeload 80\n",
      &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->node.cms.ping, Duration(std::chrono::milliseconds(500)));
  EXPECT_EQ(loaded->node.cms.missLimit, 5);
  EXPECT_EQ(loaded->node.cms.suspendLoad, 200u);
  EXPECT_EQ(loaded->node.cms.resumeLoad, 80u);
}

TEST(NodeConfigLoaderTest, HeartbeatDefaultsOffWhenUnset) {
  std::string error;
  const auto loaded =
      LoadNodeConfig("all.role manager\nall.addr 1\nall.export /store\n", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->node.cms.ping, Duration::zero());  // heartbeat disabled
  EXPECT_EQ(loaded->node.cms.missLimit, 3);
  EXPECT_EQ(loaded->node.cms.suspendLoad, 0u);  // suspension disabled
}

TEST(NodeConfigLoaderTest, RejectsBadHeartbeatValues) {
  const std::string base = "all.role manager\nall.addr 1\nall.export /store\n";
  std::string error;
  EXPECT_FALSE(LoadNodeConfig(base + "cms.ping always\n", &error).has_value());
  EXPECT_FALSE(LoadNodeConfig(base + "cms.misslimit 0\n", &error).has_value());
  EXPECT_FALSE(LoadNodeConfig(base + "cms.misslimit -2\n", &error).has_value());
  // resumeload must sit below suspendload, or a suspended server could
  // never resume (and a resumed one would re-suspend at once).
  EXPECT_FALSE(LoadNodeConfig(base + "cms.suspendload 50\ncms.resumeload 50\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("resumeload"), std::string::npos);
  // resumeload alone (suspendload unset = 0) is tolerated but inert.
  EXPECT_TRUE(LoadNodeConfig(base + "cms.resumeload 10\n", &error).has_value());
}

TEST(NodeConfigLoaderTest, CacheBytesDirectiveParsed) {
  const std::string base = "all.role manager\nall.addr 1\nall.export /store\n";
  std::string error;
  const auto loaded = LoadNodeConfig(base + "cms.cachebytes 256m\n", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->node.cms.cacheBytes, 256ull * 1024 * 1024);

  // Unset or explicit 0 => unbounded.
  const auto unset = LoadNodeConfig(base, &error);
  ASSERT_TRUE(unset.has_value()) << error;
  EXPECT_EQ(unset->node.cms.cacheBytes, 0u);
  const auto zero = LoadNodeConfig(base + "cms.cachebytes 0\n", &error);
  ASSERT_TRUE(zero.has_value()) << error;
  EXPECT_EQ(zero->node.cms.cacheBytes, 0u);
}

TEST(NodeConfigLoaderTest, RejectsBadCacheBytesValues) {
  const std::string base = "all.role manager\nall.addr 1\nall.export /store\n";
  std::string error;
  EXPECT_FALSE(LoadNodeConfig(base + "cms.cachebytes lots\n", &error).has_value());
  EXPECT_NE(error.find("cachebytes"), std::string::npos);
  // A budget below one arena growth step could never hold a useful table.
  EXPECT_FALSE(LoadNodeConfig(base + "cms.cachebytes 64k\n", &error).has_value());
  EXPECT_NE(error.find("cachebytes"), std::string::npos);
  EXPECT_TRUE(LoadNodeConfig(base + "cms.cachebytes 1m\n", &error).has_value());
}

TEST(NodeConfigLoaderTest, ProxyConfigWithPcacheDirectives) {
  std::string error;
  const auto loaded = LoadNodeConfig(
      "all.role proxy\n"
      "all.addr 50\n"
      "all.manager 1 2\n"
      "pcache.blocksize 64k\n"
      "pcache.capacity 256m\n"
      "pcache.hiwater 0.9\n"
      "pcache.lowater 0.6\n"
      "pcache.readahead 4\n",
      &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->node.role, NodeRole::kProxy);
  EXPECT_EQ(loaded->node.parent, 1u);
  ASSERT_EQ(loaded->node.extraParents.size(), 1u);
  EXPECT_EQ(loaded->node.extraParents[0], 2u);
  EXPECT_EQ(loaded->pcacheTiered.dram.blockSize, 64u * 1024);
  EXPECT_EQ(loaded->pcacheTiered.dram.capacityBytes, 256u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(loaded->pcacheTiered.dram.highWatermark, 0.9);
  EXPECT_DOUBLE_EQ(loaded->pcacheTiered.dram.lowWatermark, 0.6);
  EXPECT_EQ(loaded->pcacheTiered.diskCapacityBytes, 0u);  // disk off by default
  EXPECT_EQ(loaded->pcacheReadAhead, 4);

  // A proxy needs no all.export, but does need an origin head.
  EXPECT_FALSE(LoadNodeConfig("all.role proxy\nall.addr 50\n", &error).has_value());
  // pcache.* directives are proxy-only.
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.addr 1\nall.export /\n"
                              "pcache.capacity 1g\n",
                              &error)
                   .has_value());
  // Watermark sanity: lowater must not exceed hiwater.
  EXPECT_FALSE(LoadNodeConfig("all.role proxy\nall.addr 50\nall.manager 1\n"
                              "pcache.hiwater 0.5\npcache.lowater 0.8\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("watermarks"), std::string::npos);
}

TEST(NodeConfigLoaderTest, ProxyDiskTierDirectives) {
  std::string error;
  const std::string base =
      "all.role proxy\n"
      "all.addr 50\n"
      "all.manager 1\n";
  const auto loaded = LoadNodeConfig(base +
                                         "pcache.disk.capacity 16g\n"
                                         "pcache.disk.path /tmp/pcache-disk\n"
                                         "pcache.disk.hiwater 0.9\n"
                                         "pcache.disk.lowater 0.5\n"
                                         "pcache.ghost 4096\n",
                                     &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->pcacheTiered.diskCapacityBytes, 16ull << 30);
  EXPECT_EQ(loaded->pcacheDiskRoot, "/tmp/pcache-disk");
  EXPECT_DOUBLE_EQ(loaded->pcacheTiered.diskHighWatermark, 0.9);
  EXPECT_DOUBLE_EQ(loaded->pcacheTiered.diskLowWatermark, 0.5);
  EXPECT_EQ(loaded->pcacheTiered.ghostEntries, 4096u);

  // A disk tier without a backing directory is a config error ...
  EXPECT_FALSE(LoadNodeConfig(base + "pcache.disk.capacity 1g\n", &error).has_value());
  EXPECT_NE(error.find("pcache.disk.path"), std::string::npos);
  // ... as are inverted disk watermarks,
  EXPECT_FALSE(LoadNodeConfig(base +
                                  "pcache.disk.capacity 1g\n"
                                  "pcache.disk.path /tmp/d\n"
                                  "pcache.disk.hiwater 0.4\n"
                                  "pcache.disk.lowater 0.8\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("disk watermarks"), std::string::npos);
  // ... a negative ghost capacity,
  EXPECT_FALSE(LoadNodeConfig(base + "pcache.ghost -1\n", &error).has_value());
  EXPECT_NE(error.find("pcache.ghost"), std::string::npos);
  // ... a capacity smaller than one block,
  EXPECT_FALSE(LoadNodeConfig(base +
                                  "pcache.blocksize 64k\n"
                                  "pcache.disk.capacity 4k\n"
                                  "pcache.disk.path /tmp/d\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("at least one block"), std::string::npos);
  // ... and any pcache.disk.* key on a non-proxy role.
  EXPECT_FALSE(LoadNodeConfig("all.role server\nall.addr 9\nall.manager 1\n"
                              "all.export /store\npcache.disk.capacity 1g\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("proxy role"), std::string::npos);
  // pcache.disk.path alone (capacity 0) keeps the tier disabled.
  const auto diskOff = LoadNodeConfig(base + "pcache.disk.path /tmp/d\n", &error);
  ASSERT_TRUE(diskOff.has_value()) << error;
  EXPECT_EQ(diskOff->pcacheTiered.diskCapacityBytes, 0u);
}

TEST(NodeConfigLoaderTest, FederationDirectivesParsed) {
  std::string error;
  const auto loaded = LoadNodeConfig(R"(
all.role        manager
all.addr        10
all.export      /store
fed.meta        1
fed.cluster     site-a
fed.locality    3
)",
                                     &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->node.role, NodeRole::kManager);
  // The meta-manager is the manager's one parent.
  EXPECT_EQ(loaded->node.parent, 1u);
  EXPECT_TRUE(loaded->node.extraParents.empty());
  EXPECT_EQ(loaded->node.clusterName, "site-a");
  EXPECT_EQ(loaded->node.locality, 3u);
}

TEST(NodeConfigLoaderTest, MetaRoleNeedsNoExportsOrManager) {
  std::string error;
  const auto loaded = LoadNodeConfig("all.role meta\nall.addr 1\n", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  // The meta-manager is a manager at the federation's root.
  EXPECT_EQ(loaded->node.role, NodeRole::kManager);
  EXPECT_EQ(loaded->node.parent, 0u);
  EXPECT_EQ(loaded->node.addr, 1u);
}

TEST(NodeConfigLoaderTest, RejectsBadFederationConfigs) {
  std::string error;
  // fed.* is for cluster heads, not servers (and not the meta itself).
  EXPECT_FALSE(LoadNodeConfig("all.role server\nall.addr 12\nall.manager 1\n"
                              "all.export /store\nfed.meta 1\n",
                              &error)
                   .has_value());
  EXPECT_FALSE(
      LoadNodeConfig("all.role meta\nall.addr 1\nfed.locality 2\n", &error)
          .has_value());
  // The meta is the federation's root: it has no parent to name.
  EXPECT_FALSE(LoadNodeConfig("all.role meta\nall.addr 1\nall.manager 2\n", &error)
                   .has_value());
  // A cluster name / locality without the meta address is a config slip.
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.addr 10\nall.export /\n"
                              "fed.cluster site-a\n",
                              &error)
                   .has_value());
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.addr 10\nall.export /\n"
                              "all.manager 2\nfed.locality 1\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("require fed.meta"), std::string::npos);
}

TEST(NodeConfigLoaderTest, RejectsFedMetaBesideAllManager) {
  // fed.meta sets the manager's parent; all.manager would name it twice.
  std::string error;
  EXPECT_FALSE(LoadNodeConfig("all.role manager\nall.addr 10\nall.export /store\n"
                              "all.manager 1\nfed.meta 1\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("not both"), std::string::npos) << error;
  // all.manager alone still makes a manager another head's subordinate.
  const auto chained = LoadNodeConfig(
      "all.role manager\nall.addr 10\nall.export /store\nall.manager 1\n", &error);
  ASSERT_TRUE(chained.has_value()) << error;
  EXPECT_EQ(chained->node.parent, 1u);
}

TEST(NodeConfigLoaderTest, RejectsARepeatedDirective) {
  // A second line would replace the first: a config meant to export two
  // prefixes would export only the last.
  std::string error;
  EXPECT_FALSE(LoadNodeConfig("all.role server\nall.addr 12\nall.manager 1\n"
                              "all.export /store\nall.export /scratch\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("line 5: all.export given twice"), std::string::npos) << error;
  EXPECT_FALSE(LoadNodeConfig("all.role server\nall.addr 12\nall.manager 1\n"
                              "all.manager 2\nall.export /store\n",
                              &error)
                   .has_value());
  EXPECT_NE(error.find("all.manager given twice"), std::string::npos) << error;
  // Several values go on the directive's one line.
  const auto loaded = LoadNodeConfig(
      "all.role server\nall.addr 12\nall.manager 1 2\nall.export /store /scratch\n", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->node.exports, (std::vector<std::string>{"/store", "/scratch"}));
}

TEST(NodeConfigLoaderTest, RejectsAnAddressThatDoesNotFit) {
  // 2^32 + 1 would wrap to address 1, the manager's.
  const std::string server = "all.role server\nall.export /store\n";
  const std::string manager = "all.role manager\nall.addr 10\nall.export /store\n";
  std::string error;
  EXPECT_FALSE(LoadNodeConfig(server + "all.addr 4294967297\nall.manager 1\n", &error)
                   .has_value());
  EXPECT_NE(error.find("all.addr"), std::string::npos) << error;
  EXPECT_FALSE(LoadNodeConfig(server + "all.addr 12\nall.manager 4294967297\n", &error)
                   .has_value());
  EXPECT_NE(error.find("all.manager"), std::string::npos) << error;
  EXPECT_FALSE(LoadNodeConfig(manager + "fed.meta 4294967297\n", &error).has_value());
  EXPECT_NE(error.find("fed.meta"), std::string::npos) << error;
  EXPECT_FALSE(LoadNodeConfig(manager + "all.cnsd 4294967297\n", &error).has_value());
  EXPECT_NE(error.find("all.cnsd"), std::string::npos) << error;
  // The largest address still loads.
  const auto top =
      LoadNodeConfig(server + "all.addr 4294967295\nall.manager 4294967295\n", &error);
  ASSERT_TRUE(top.has_value()) << error;
  EXPECT_EQ(top->node.addr, 4294967295u);
  EXPECT_EQ(top->node.parent, 4294967295u);
}

TEST(NodeConfigLoaderTest, RejectsTrailingCharactersInAnAddress) {
  // "7x" once loaded as parent 7, and all.cnsd 7x as no cnsd at all.
  const std::string server = "all.role server\nall.addr 12\nall.export /store\n";
  std::string error;
  EXPECT_FALSE(LoadNodeConfig(server + "all.manager 7x\n", &error).has_value());
  EXPECT_NE(error.find("all.manager"), std::string::npos) << error;
  EXPECT_FALSE(LoadNodeConfig(server + "all.manager 1 2.5\n", &error).has_value());
  EXPECT_FALSE(
      LoadNodeConfig(server + "all.manager 1\nall.cnsd 7x\n", &error).has_value());
  EXPECT_NE(error.find("all.cnsd"), std::string::npos) << error;
  const auto cnsd = LoadNodeConfig(server + "all.manager 1\nall.cnsd 7\n", &error);
  ASSERT_TRUE(cnsd.has_value()) << error;
  EXPECT_EQ(cnsd->node.cnsd, 7u);
}

}  // namespace
}  // namespace scalla::xrd
