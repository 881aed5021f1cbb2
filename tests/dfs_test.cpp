// Tests for the simulated distributed file system: the flat single-disk
// cost model (bit-identical under the default config), the GF(256)
// Reed-Solomon codec, failure-domain-aware placement, degraded reads, and
// the deterministic repair plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "dfs/codec.hpp"
#include "dfs/dfs.hpp"
#include "dfs/placement.hpp"

namespace tsx::dfs {
namespace {

/// Writes `lines` as one partition buffer, each line '\n'-terminated.
FileStatus write_lines(Dfs& fs, const std::string& path,
                       const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  std::vector<std::string> parts;
  parts.push_back(std::move(text));
  return fs.write_parts(path, std::move(parts));
}

/// Every line of a text file, collected through for_each_line.
std::vector<std::string> lines_of(Dfs& fs, const std::string& path) {
  std::vector<std::string> out;
  fs.for_each_line(path, [&out](std::string_view line) {
    out.emplace_back(line);
  });
  return out;
}

/// The flat model with `block_bytes`-byte blocks: one rack, a datanode per
/// replica. `block_bytes / 2^20` MiB is exact, so the blocks are too.
DfsConfig flat(double block_bytes, int replication = 1) {
  DfsConfig config;
  config.replication = replication;
  config.nodes_per_rack = replication;
  config.block_mib = block_bytes / (1024.0 * 1024.0);
  return config;
}

TEST(Dfs, WriteReadRoundTrip) {
  Dfs fs;
  const std::vector<std::string> lines = {"alpha", "beta", "gamma"};
  const FileStatus st = write_lines(fs, "/data/in", lines);
  EXPECT_EQ(st.path, "/data/in");
  EXPECT_DOUBLE_EQ(st.size.b(), 6.0 + 5.0 + 6.0);  // +\n each
  EXPECT_EQ(lines_of(fs, "/data/in"), lines);
}

TEST(Dfs, ExistsListRemove) {
  Dfs fs;
  write_lines(fs, "/a", {"x"});
  write_lines(fs, "/b", {"y"});
  EXPECT_TRUE(fs.exists("/a"));
  EXPECT_EQ(fs.list(), (std::vector<std::string>{"/a", "/b"}));
  fs.remove("/a");
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_THROW(fs.remove("/a"), tsx::Error);
  EXPECT_THROW(lines_of(fs, "/a"), tsx::Error);
}

TEST(Dfs, OverwriteReplacesContent) {
  Dfs fs;
  write_lines(fs, "/f", {"old"});
  write_lines(fs, "/f", {"new", "content"});
  EXPECT_EQ(lines_of(fs, "/f").size(), 2u);
  EXPECT_EQ(fs.file_count(), 1u);
}

TEST(Dfs, BlockAccounting) {
  Dfs fs(flat(100));
  // 250 bytes -> 3 blocks of 100.
  std::vector<std::string> lines(10, std::string(24, 'x'));  // 10*25 = 250
  const FileStatus st = write_lines(fs, "/blocks", lines);
  EXPECT_EQ(st.blocks, 3u);
  EXPECT_EQ(fs.block_count(), 3u);
}

TEST(Dfs, EmptyFileStillHasOneBlock) {
  Dfs fs;
  const FileStatus st = write_lines(fs, "/empty", {});
  EXPECT_EQ(st.blocks, 1u);
  EXPECT_TRUE(lines_of(fs, "/empty").empty());
}

TEST(Dfs, WriteTimePaysReplication) {
  Dfs fs1;
  Dfs fs3(flat(Bytes::mib(128).b(), 3));
  EXPECT_GT(fs3.write_charge(Bytes::mib(64)).disk.b(),
            fs1.write_charge(Bytes::mib(64)).disk.b());
  EXPECT_GT(fs3.write_charge(Bytes::mib(64)).seek.sec(),
            fs1.write_charge(Bytes::mib(64)).seek.sec());
  EXPECT_DOUBLE_EQ(fs3.bytes_stored().b(), 0.0);
}

// Satellite fix: stored bytes charge *full* blocks — a 4-byte file on a
// 100-byte-block FS with replication 3 occupies 3 padded chunks, and
// remove() releases them from the accounting.
TEST(Dfs, BytesStoredChargesPaddedBlocks) {
  Dfs fs(flat(100, 3));
  write_lines(fs, "/r", {"abc"});  // 4 bytes -> 1 block x 3 replicas
  EXPECT_DOUBLE_EQ(fs.bytes_stored().b(), 300.0);
  write_lines(fs, "/s", std::vector<std::string>(10, std::string(24, 'y')));
  // 250 bytes -> 3 blocks x 3 replicas = 9 padded chunks.
  EXPECT_DOUBLE_EQ(fs.bytes_stored().b(), 300.0 + 900.0);
  fs.remove("/s");
  EXPECT_DOUBLE_EQ(fs.bytes_stored().b(), 300.0);
  EXPECT_EQ(fs.block_count(), 1u);
  fs.remove("/r");
  EXPECT_DOUBLE_EQ(fs.bytes_stored().b(), 0.0);
  EXPECT_EQ(fs.block_count(), 0u);
}

TEST(Dfs, BlocksForEdgeCases) {
  Dfs fs(flat(100));
  EXPECT_EQ(fs.blocks_for(Bytes::zero()), 1u);     // empty file: one block
  EXPECT_EQ(fs.blocks_for(Bytes::of(1)), 1u);      // sub-block
  EXPECT_EQ(fs.blocks_for(Bytes::of(99)), 1u);     // one short of the edge
  EXPECT_EQ(fs.blocks_for(Bytes::of(100)), 1u);    // exact multiple
  EXPECT_EQ(fs.blocks_for(Bytes::of(101)), 2u);    // spill into the next
  EXPECT_EQ(fs.blocks_for(Bytes::of(200)), 2u);    // exact multiple again
  EXPECT_EQ(fs.blocks_for(Bytes::of(201)), 3u);
}

TEST(Dfs, SeekMathAtReplicationOneVsN) {
  Dfs fs1;
  Dfs fs3(flat(Bytes::mib(128).b(), 3));
  const Bytes two_blocks = Bytes::mib(256);
  // Reads touch one copy: seek overhead is replication-independent.
  EXPECT_DOUBLE_EQ(fs1.read_charge(two_blocks).seek.sec(),
                   fs3.read_charge(two_blocks).seek.sec());
  EXPECT_NEAR(fs1.read_charge(two_blocks).seek.sec(), 2 * 100e-6, 1e-12);
  // Writes pay every replica: 2 blocks x 3 copies x 100us.
  EXPECT_NEAR(fs1.write_charge(two_blocks).seek.sec(), 2 * 100e-6, 1e-12);
  EXPECT_NEAR(fs3.write_charge(two_blocks).seek.sec(), 6 * 100e-6, 1e-12);
  // The write streams the replicated volume.
  EXPECT_DOUBLE_EQ(fs3.write_charge(two_blocks).disk.b(), 3 * two_blocks.b());
}

TEST(Dfs, SeekOverheadExcludesTransfer) {
  Dfs fs;
  const IoCharge charge = fs.read_charge(Bytes::mib(256));
  EXPECT_NEAR(charge.seek.sec(), 2 * 100e-6, 1e-9);  // 2 blocks, no transfer
  EXPECT_DOUBLE_EQ(charge.disk.b(), Bytes::mib(256).b());
}

TEST(Dfs, RejectsBadConfig) {
  EXPECT_THROW(Dfs(flat(0.0)), tsx::Error);
  EXPECT_THROW(Dfs(flat(Bytes::mib(1).b(), 0)), tsx::Error);
}

TEST(Dfs, DefaultConfigMatchesLegacyChargesBitForBit) {
  // The default config charges the flat single-disk formulas: a read seeks
  // every block once and streams the bytes; a write does both per replica.
  Dfs fs;
  for (const double b : {0.0, 1.0, 512.0, 1e6, 3.2e9}) {
    const Bytes bytes = Bytes::of(b);
    const auto blocks = static_cast<double>(fs.blocks_for(bytes));
    const double r = fs.replication();
    const IoCharge read = fs.read_charge(bytes);
    EXPECT_EQ(read.seek.sec(), (kBlockSeek * blocks).sec()) << b;
    EXPECT_EQ(read.disk.b(), bytes.b()) << b;
    const IoCharge write = fs.write_charge(bytes);
    EXPECT_EQ(write.seek.sec(), (kBlockSeek * blocks * r).sec()) << b;
    EXPECT_EQ(write.disk.b(), (bytes * r).b()) << b;
  }
}

// ---- codec ----------------------------------------------------------------

TEST(DfsCodec, GfFieldBasics) {
  EXPECT_EQ(gf_mul(0, 77), 0);
  EXPECT_EQ(gf_mul(1, 77), 77);
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(x, gf_inv(x)), 1) << a;
  }
  // Commutativity spot checks.
  EXPECT_EQ(gf_mul(13, 200), gf_mul(200, 13));
}

ChunkData pattern_chunk(std::size_t len, std::uint8_t base) {
  ChunkData c(len);
  for (std::size_t i = 0; i < len; ++i)
    c[i] = static_cast<std::uint8_t>(base + i * 31);
  return c;
}

TEST(DfsCodec, ThrowsPastParityBudget) {
  const int k = 3, m = 1;
  std::vector<ChunkData> data(3, pattern_chunk(8, 1));
  std::vector<ChunkData> chunks = data;
  const std::vector<ChunkData> parity = rs_encode(data, m);
  chunks.insert(chunks.end(), parity.begin(), parity.end());
  std::vector<bool> present(4, true);
  present[0] = present[2] = false;  // two losses, one parity
  EXPECT_THROW(
      rs_reconstruct(chunks, present, {8, 8, 8}, k, m), tsx::Error);
}

// Reference encoder: one gf_mul per byte, the plain definition of the parity
// rows that the codec's product-row kernel must reproduce byte for byte.
std::vector<ChunkData> reference_encode(const std::vector<ChunkData>& data,
                                        int m) {
  const int k = static_cast<int>(data.size());
  std::size_t len = 0;
  for (const ChunkData& d : data) len = std::max(len, d.size());
  std::vector<ChunkData> parity(static_cast<std::size_t>(m),
                                ChunkData(len, 0));
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < k; ++j) {
      const ChunkData& d = data[static_cast<std::size_t>(j)];
      for (std::size_t b = 0; b < d.size(); ++b)
        parity[static_cast<std::size_t>(i)][b] ^=
            gf_mul(rs_coefficient(i, j, k), d[b]);
    }
  return parity;
}

struct Geometry {
  int k;
  int m;
};
constexpr Geometry kGeometries[] = {{1, 3}, {3, 1}, {4, 2}, {6, 3}};

// Uneven data chunks: lengths vary per slot and the last one is short.
std::vector<ChunkData> uneven_data(int k) {
  std::vector<ChunkData> data;
  for (int j = 0; j < k; ++j) {
    const std::size_t len = j == k - 1 ? 7u : 300u + 37u * j;
    data.push_back(pattern_chunk(len, static_cast<std::uint8_t>(j * 29 + 3)));
  }
  return data;
}

TEST(DfsCodec, EncodeMatchesPerByteReference) {
  for (const Geometry g : kGeometries) {
    const std::vector<ChunkData> data = uneven_data(g.k);
    const std::vector<ChunkData> parity = rs_encode(data, g.m);
    ASSERT_EQ(parity.size(), static_cast<std::size_t>(g.m));
    std::size_t longest = 0;
    for (const ChunkData& d : data) longest = std::max(longest, d.size());
    EXPECT_EQ(parity[0].size(), longest);  // parity spans the longest chunk
    EXPECT_EQ(parity, reference_encode(data, g.m))
        << "RS(" << g.k << "," << g.m << ")";
  }
}

TEST(DfsCodec, ReconstructsFromAnyLossPattern) {
  for (const Geometry g : kGeometries) {
    const std::vector<ChunkData> data = uneven_data(g.k);
    std::vector<std::size_t> lengths;
    for (const ChunkData& d : data) lengths.push_back(d.size());
    std::vector<ChunkData> chunks = data;
    for (ChunkData& p : reference_encode(data, g.m))
      chunks.push_back(std::move(p));
    std::vector<const ChunkData*> refs;
    for (const ChunkData& c : chunks) refs.push_back(&c);

    const int width = g.k + g.m;
    int patterns = 0;
    for (unsigned lost = 0; lost < (1u << width); ++lost) {
      if (std::popcount(lost) > g.m) continue;
      ++patterns;
      std::vector<bool> present(static_cast<std::size_t>(width));
      for (int s = 0; s < width; ++s)
        present[static_cast<std::size_t>(s)] = (lost >> s & 1u) == 0;
      EXPECT_EQ(rs_reconstruct(chunks, present, lengths, g.k, g.m), data)
          << "RS(" << g.k << "," << g.m << ") lost mask " << lost;
      EXPECT_EQ(rs_reconstruct(refs, present, lengths, g.k, g.m), data)
          << "RS(" << g.k << "," << g.m << ") lost mask " << lost;
    }
    EXPECT_GT(patterns, width);  // every single loss and more
  }
}

// ---- placement ------------------------------------------------------------

TEST(DfsPlacement, StripeNodesAreDistinctAndRackSpread) {
  const Cluster cluster(3, 3);
  for (std::uint64_t stripe = 0; stripe < 16; ++stripe) {
    const std::vector<int> nodes =
        place_stripe(cluster, 42, 0x1234, stripe, 9);
    std::set<int> distinct(nodes.begin(), nodes.end());
    EXPECT_EQ(distinct.size(), 9u);  // never two chunks on one node
    std::map<int, int> per_rack;
    for (const int n : nodes) ++per_rack[cluster.rack_of(n)];
    for (const auto& [rack, count] : per_rack)
      EXPECT_EQ(count, 3) << "rack " << rack;  // even spread at full width
  }
}

TEST(DfsPlacement, PartialWidthPrefersRackDiversity) {
  const Cluster cluster(3, 4);
  const std::vector<int> nodes = place_stripe(cluster, 7, 99, 0, 3);
  std::set<int> racks;
  for (const int n : nodes) racks.insert(cluster.rack_of(n));
  EXPECT_EQ(racks.size(), 3u);  // 3 chunks over 3 racks: one each
}

TEST(DfsPlacement, DeterministicInSeedAndThrowsWhenShort) {
  const Cluster cluster(2, 2);
  EXPECT_EQ(place_stripe(cluster, 1, 2, 3, 4),
            place_stripe(cluster, 1, 2, 3, 4));
  EXPECT_NE(place_stripe(cluster, 1, 2, 3, 4),
            place_stripe(cluster, 2, 2, 3, 4));
  EXPECT_THROW(place_stripe(cluster, 1, 2, 3, 5), tsx::Error);
}

// ---- cluster Dfs: degraded reads + repair ---------------------------------

DfsConfig rs_config() {
  DfsConfig config;
  config.codec = CodecKind::kRs;
  config.rs_k = 4;
  config.rs_m = 2;
  config.racks = 3;
  config.nodes_per_rack = 3;
  config.block_mib = 1.0 / 1024;  // 1 KiB blocks: small files stripe wide
  return config;
}

std::vector<std::string> big_text() {
  std::vector<std::string> lines;
  for (int i = 0; i < 200; ++i)
    lines.push_back("line-" + std::to_string(i) + "-" +
                    std::string(static_cast<std::size_t>(17 + i % 13), 'z'));
  return lines;
}

TEST(DfsCluster, DegradedReadIsByteIdentical) {
  Dfs fs(rs_config(), 42);
  const std::vector<std::string> lines = big_text();
  const FileStatus st = write_lines(fs, "/rs/file", lines);
  ASSERT_GT(st.blocks, 4u);  // at least one full stripe
  EXPECT_EQ(lines_of(fs, "/rs/file"), lines);  // healthy

  // Lose up to m = 2 datanodes hosting chunks of stripe 0.
  const std::vector<int> nodes = fs.stripe_nodes("/rs/file", 0);
  ASSERT_GE(nodes.size(), 6u);
  fs.fail_datanode(nodes[0]);
  EXPECT_EQ(lines_of(fs, "/rs/file"), lines);  // one loss
  fs.fail_datanode(nodes[5]);
  EXPECT_EQ(lines_of(fs, "/rs/file"), lines);  // parity-budget losses
  EXPECT_GT(fs.stats().degraded_reads, 0u);
  EXPECT_GT(fs.stats().reconstructed_chunks, 0u);
  EXPECT_GT(fs.degraded_fraction(), 0.0);

  // A third loss in the same stripe exceeds the budget.
  fs.fail_datanode(nodes[2]);
  EXPECT_THROW(lines_of(fs, "/rs/file"), tsx::Error);
  EXPECT_GT(fs.stats().chunks_unreadable, 0u);
}

TEST(DfsCluster, DegradedReadChargeAmplifies) {
  Dfs fs(rs_config(), 42);
  write_lines(fs, "/rs/a", big_text());
  const IoCharge healthy = fs.read_charge(Bytes::mib(1));
  fs.fail_datanode(fs.stripe_nodes("/rs/a", 0)[0]);
  const IoCharge degraded = fs.read_charge(Bytes::mib(1));
  EXPECT_GT(degraded.disk.b(), healthy.disk.b());
  EXPECT_GT(degraded.seek.sec(), healthy.seek.sec());
  // Amplification is bounded by reading all k chunks instead of one.
  EXPECT_LE(degraded.disk.b(), healthy.disk.b() * 4 + 1.0);
}

TEST(DfsCluster, WriteChargePaysParity) {
  Dfs fs(rs_config(), 42);
  const Bytes bytes = Bytes::mib(4);
  const IoCharge wr = fs.write_charge(bytes);
  // RS(4,2): parity adds m/k = 50% write volume.
  EXPECT_DOUBLE_EQ(wr.disk.b(), bytes.b() * 1.5);
}

TEST(DfsCluster, RepairPlanIsDeterministicAndRackAware) {
  Dfs a(rs_config(), 42);
  Dfs b(rs_config(), 42);
  const std::vector<std::string> lines = big_text();
  write_lines(a, "/rs/f", lines);
  write_lines(b, "/rs/f", lines);
  const int victim = a.stripe_nodes("/rs/f", 0)[1];
  a.fail_datanode(victim);
  b.fail_datanode(victim);
  const RepairSchedule pa = a.plan_repair();
  const RepairSchedule pb = b.plan_repair();
  ASSERT_FALSE(pa.empty());
  ASSERT_EQ(pa.tasks.size(), pb.tasks.size());
  for (std::size_t i = 0; i < pa.tasks.size(); ++i) {
    EXPECT_EQ(pa.tasks[i].path, pb.tasks[i].path);
    EXPECT_EQ(pa.tasks[i].stripe, pb.tasks[i].stripe);
    EXPECT_EQ(pa.tasks[i].chunk_index, pb.tasks[i].chunk_index);
    EXPECT_EQ(pa.tasks[i].target, pb.tasks[i].target);
    EXPECT_NE(pa.tasks[i].target, victim);  // never back onto the dead node
    EXPECT_DOUBLE_EQ(pa.tasks[i].read_bytes.b(), pb.tasks[i].read_bytes.b());
  }
}

TEST(DfsCluster, RepairRestoresRedundancyByteForByte) {
  Dfs fs(rs_config(), 42);
  const std::vector<std::string> lines = big_text();
  write_lines(fs, "/rs/f", lines);
  const std::vector<int> nodes = fs.stripe_nodes("/rs/f", 0);
  fs.fail_datanode(nodes[0]);
  fs.fail_datanode(nodes[3]);
  const RepairSchedule plan = fs.plan_repair();
  ASSERT_FALSE(plan.empty());
  for (const RepairTask& task : plan.tasks) EXPECT_TRUE(fs.apply_repair(task));
  EXPECT_EQ(fs.stats().chunks_repaired, plan.tasks.size());
  EXPECT_DOUBLE_EQ(fs.degraded_fraction(), 0.0);
  EXPECT_TRUE(fs.plan_repair().empty());  // nothing left to do
  EXPECT_EQ(lines_of(fs, "/rs/f"), lines);
  // Full redundancy is back: the original parity budget holds again.
  const std::vector<int> fresh = fs.stripe_nodes("/rs/f", 0);
  fs.fail_datanode(fresh[1]);
  fs.fail_datanode(fresh[4]);
  EXPECT_EQ(lines_of(fs, "/rs/f"), lines);
}

TEST(DfsCluster, StaleRepairTaskIsCancelled) {
  Dfs fs(rs_config(), 42);
  write_lines(fs, "/rs/f", big_text());
  const int rack = fs.cluster().rack_of(fs.stripe_nodes("/rs/f", 0)[0]);
  fs.fail_rack(rack);
  const RepairSchedule plan = fs.plan_repair();
  ASSERT_FALSE(plan.empty());
  fs.recover_rack(rack);  // chunks heal before repair lands
  EXPECT_FALSE(fs.apply_repair(plan.tasks.front()));
  EXPECT_EQ(fs.stats().repair_tasks_cancelled, 1u);
}

TEST(DfsCluster, RackOfflineAndRecover) {
  Dfs fs(rs_config(), 42);
  const std::vector<std::string> lines = big_text();
  write_lines(fs, "/rs/f", lines);
  fs.fail_rack(0);
  EXPECT_EQ(fs.stats().racks_lost, 1u);
  EXPECT_EQ(fs.cluster().online_count(), 6);
  // RS(4,2) over 3 racks loses at most 2 chunks per stripe: still readable.
  EXPECT_EQ(lines_of(fs, "/rs/f"), lines);
  fs.recover_rack(0);
  EXPECT_EQ(fs.stats().racks_recovered, 1u);
  EXPECT_EQ(fs.cluster().online_count(), 9);
  EXPECT_DOUBLE_EQ(fs.degraded_fraction(), 0.0);
}

TEST(DfsCluster, RackRecoveryDoesNotResurrectCrashedNodes) {
  Dfs fs(rs_config(), 42);
  write_lines(fs, "/rs/f", big_text());
  const int victim = fs.stripe_nodes("/rs/f", 0)[0];
  fs.fail_datanode(victim);  // permanent crash
  const int rack = fs.cluster().rack_of(victim);
  fs.fail_rack(rack);
  fs.recover_rack(rack);
  EXPECT_FALSE(fs.cluster().online(victim));
  EXPECT_GT(fs.degraded_fraction(), 0.0);  // the crash is still outstanding
}

TEST(DfsCluster, ProvisionedFileParticipatesWithoutContent) {
  DfsConfig config = rs_config();
  config.block_mib = 1.0;  // 1 MiB blocks
  Dfs fs(config, 42);
  const FileStatus st = fs.provision("/in/huge", Bytes::mib(10));
  EXPECT_EQ(st.blocks, 10u);
  EXPECT_TRUE(fs.exists("/in/huge"));
  EXPECT_THROW(lines_of(fs, "/in/huge"), tsx::Error);  // no bytes to read
  fs.fail_datanode(fs.stripe_nodes("/in/huge", 0)[0]);
  const RepairSchedule plan = fs.plan_repair();
  EXPECT_FALSE(plan.empty());  // virtual chunks still repairable
  for (const RepairTask& t : plan.tasks) EXPECT_TRUE(fs.apply_repair(t));
  EXPECT_DOUBLE_EQ(fs.degraded_fraction(), 0.0);
}

TEST(DfsCluster, ReplicatedClusterSurvivesNodeLoss) {
  DfsConfig config;
  config.codec = CodecKind::kReplication;
  config.replication = 3;
  config.racks = 3;
  config.nodes_per_rack = 2;
  config.block_mib = 1.0 / 1024;
  Dfs fs(config, 7);
  const std::vector<std::string> lines = big_text();
  write_lines(fs, "/rep/f", lines);
  const std::vector<int> nodes = fs.stripe_nodes("/rep/f", 0);
  ASSERT_EQ(nodes.size(), 3u);
  std::set<int> racks;
  for (const int n : nodes) racks.insert(fs.cluster().rack_of(n));
  EXPECT_EQ(racks.size(), 3u);  // replicas rack-diverse
  fs.fail_datanode(nodes[0]);
  fs.fail_datanode(nodes[1]);
  EXPECT_EQ(lines_of(fs, "/rep/f"), lines);  // last replica serves
  const RepairSchedule plan = fs.plan_repair();
  EXPECT_FALSE(plan.empty());
  for (const RepairTask& t : plan.tasks) EXPECT_TRUE(fs.apply_repair(t));
  EXPECT_EQ(lines_of(fs, "/rep/f"), lines);
  EXPECT_DOUBLE_EQ(fs.degraded_fraction(), 0.0);
}

// ---- parity encoded on first loss ------------------------------------------

DfsConfig rs63_config() {
  DfsConfig config = rs_config();
  config.rs_k = 6;
  config.rs_m = 3;
  config.racks = 3;
  config.nodes_per_rack = 4;
  return config;
}

// Lines filling `bytes` exactly (each line plus its newline), 1 KiB blocks.
std::vector<std::string> text_of(std::size_t bytes, char fill) {
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < bytes;) {
    const std::size_t len = std::min<std::size_t>(90, bytes - at - 1);
    lines.emplace_back(len, fill);
    at += len + 1;
  }
  return lines;
}

TEST(DfsCluster, ParityLossesFirstThenDataUpToBudgetReadBack) {
  Dfs fs(rs63_config(), 42);
  const std::vector<std::string> lines = text_of(5 * 1024 + 300, 'p');
  ASSERT_EQ(write_lines(fs, "/rs/one", lines).blocks, 6u);  // one full stripe
  const std::vector<int> nodes = fs.stripe_nodes("/rs/one", 0);
  ASSERT_EQ(nodes.size(), 9u);
  // Slots 6..8 hold only parity; lose two of them, then one data chunk.
  for (const int slot : {6, 8, 2}) {
    fs.fail_datanode(nodes[static_cast<std::size_t>(slot)]);
    EXPECT_EQ(lines_of(fs, "/rs/one"), lines) << "after slot " << slot;
  }
  EXPECT_EQ(fs.stats().reconstructed_chunks, 1u);
  EXPECT_EQ(fs.stats().chunks_unreadable, 0u);
  fs.fail_datanode(nodes[4]);  // a fourth loss is past RS(6,3)'s budget
  EXPECT_THROW(lines_of(fs, "/rs/one"), tsx::Error);
}

TEST(DfsCluster, RepairedParityThenMDataLossesReadBack) {
  Dfs fs(rs63_config(), 42);
  const std::vector<std::string> lines = text_of(6 * 1024, 'r');
  write_lines(fs, "/rs/one", lines);
  fs.fail_datanode(fs.stripe_nodes("/rs/one", 0)[7]);  // parity only
  const RepairSchedule plan = fs.plan_repair();
  ASSERT_EQ(plan.tasks.size(), 1u);
  EXPECT_EQ(plan.tasks[0].chunk_index, 7);
  EXPECT_TRUE(fs.apply_repair(plan.tasks[0]));
  const std::vector<int> fresh = fs.stripe_nodes("/rs/one", 0);
  for (const int slot : {0, 3, 5}) {  // m = 3 data chunks
    fs.fail_datanode(fresh[static_cast<std::size_t>(slot)]);
    EXPECT_EQ(lines_of(fs, "/rs/one"), lines) << "after slot " << slot;
  }
  // The repair rebuilds one chunk; the reads then rebuild 1, 2 and 3.
  EXPECT_EQ(fs.stats().reconstructed_chunks, 1u + 1u + 2u + 3u);
}

TEST(DfsCluster, WriteIntoDegradedClusterSurvivesOneMoreLoss) {
  DfsConfig config = rs_config();  // RS(4,2)
  config.nodes_per_rack = 2;       // exactly k + m = 6 nodes
  Dfs fs(config, 42);
  fs.fail_datanode(0);
  const std::vector<std::string> lines = text_of(9 * 1024 + 100, 'w');
  const FileStatus st = write_lines(fs, "/rs/late", lines);
  ASSERT_EQ(st.blocks, 10u);  // stripes of 4, 4 and 2 data chunks
  // Five online nodes: full stripes land with m_eff = 1 parity chunk.
  EXPECT_EQ(fs.stripe_nodes("/rs/late", 0).size(), 5u);
  EXPECT_EQ(fs.stripe_nodes("/rs/late", 2).size(), 4u);
  fs.fail_datanode(fs.stripe_nodes("/rs/late", 0)[1]);
  EXPECT_EQ(lines_of(fs, "/rs/late"), lines);
  EXPECT_GT(fs.stats().reconstructed_chunks, 0u);
  EXPECT_EQ(fs.stats().chunks_unreadable, 0u);
}

TEST(DfsCluster, OverwriteOfPendingFileKeepsLossCountersConsistent) {
  Dfs fs(rs_config(), 42);
  write_lines(fs, "/rs/f", big_text());
  const std::vector<std::string> lines = text_of(6 * 1024 + 500, 'o');
  write_lines(fs, "/rs/f", lines);  // replaces a file whose parity is pending
  const int victim = fs.stripe_nodes("/rs/f", 0)[0];
  fs.fail_datanode(victim);

  // The counters see only the live file's chunks on the victim.
  std::size_t lost = 0, lost_data = 0, data = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::vector<int> nodes = fs.stripe_nodes("/rs/f", s);
    const std::size_t d = s == 0 ? 4 : 3;  // 7 blocks: stripes of 4 and 3
    data += d;
    for (std::size_t c = 0; c < nodes.size(); ++c)
      if (nodes[c] == victim) {
        ++lost;
        if (c < d) ++lost_data;
      }
  }
  EXPECT_EQ(fs.status("/rs/f").blocks, 7u);
  EXPECT_EQ(fs.stats().chunks_lost, lost);
  EXPECT_DOUBLE_EQ(fs.degraded_fraction(), static_cast<double>(lost_data) /
                                               static_cast<double>(data));
  EXPECT_EQ(lines_of(fs, "/rs/f"), lines);
}

TEST(DfsCluster, LinesCrossChunkBoundariesExactly) {
  // 1 KiB blocks, RS(4,2): 9 blocks make stripes of 4, 4 and a short 1.
  std::vector<std::string> lines;
  lines.emplace_back(1023, 'a');  // its newline is chunk 0's last byte
  lines.emplace_back();
  lines.emplace_back();
  lines.emplace_back(2500, 'b');  // longer than a block: spans three chunks
  lines.emplace_back();
  lines.emplace_back(7, 'c');
  for (const std::string& tail : text_of(8 * 1024 + 200 - 3536, 'd'))
    lines.push_back(tail);
  std::size_t bytes = 0;
  for (const std::string& line : lines) bytes += line.size() + 1;
  ASSERT_EQ(bytes, 8u * 1024 + 200);

  Dfs fs(rs_config(), 42);
  ASSERT_EQ(write_lines(fs, "/rs/lines", lines).blocks, 9u);
  EXPECT_EQ(lines_of(fs, "/rs/lines"), lines);  // healthy
  fs.fail_datanode(fs.stripe_nodes("/rs/lines", 0)[0]);
  EXPECT_EQ(lines_of(fs, "/rs/lines"), lines);  // chunk 0 reconstructed
  EXPECT_GT(fs.stats().reconstructed_chunks, 0u);
}

// ---- text from partition buffers, read line by line ------------------------

// Lines with every shape a reader must split: empty lines, a line longer
// than a 1 KiB block, and lines that cross chunk boundaries.
std::vector<std::string> ragged_text() {
  std::vector<std::string> lines = big_text();
  lines.insert(lines.begin() + 3, std::string());
  lines.insert(lines.begin() + 40, std::string(2500, 'L'));
  lines.insert(lines.begin() + 41, std::string());
  lines.emplace_back();
  return lines;
}

// The lines as partition buffers: uneven runs, with empty partitions at
// the start, in the middle and at the end.
std::vector<std::string> as_parts(const std::vector<std::string>& lines) {
  std::vector<std::string> parts(1);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % 37 == 0) parts.emplace_back();
    if (i == 60) parts.emplace_back();
    parts.back() += lines[i];
    parts.back() += '\n';
  }
  parts.emplace_back();
  return parts;
}

DfsConfig replicated_config() {
  DfsConfig config;
  config.codec = CodecKind::kReplication;
  config.replication = 3;
  config.racks = 3;
  config.nodes_per_rack = 2;
  config.block_mib = 1.0 / 1024;
  return config;
}

void expect_same_chunks(const Dfs& a, const Dfs& b, const std::string& path) {
  const std::size_t blocks = a.status(path).blocks;
  const auto k = static_cast<std::size_t>(a.config().data_chunks());
  for (std::size_t s = 0; s < (blocks + k - 1) / k; ++s) {
    const std::vector<int> nodes = a.stripe_nodes(path, s);
    ASSERT_EQ(nodes, b.stripe_nodes(path, s));
    for (std::size_t c = 0; c < nodes.size(); ++c)
      EXPECT_EQ(a.chunk_payload(path, s, c), b.chunk_payload(path, s, c))
          << "stripe " << s << " slot " << c;
  }
}

TEST(DfsText, PartsWriteTheSameFileAsLines) {
  const std::vector<std::string> lines = ragged_text();
  for (const DfsConfig& config : {rs63_config(), replicated_config()}) {
    Dfs a(config, 42), b(config, 42);
    const FileStatus from_lines = write_lines(a, "/t", lines);
    const FileStatus from_parts = b.write_parts("/t", as_parts(lines));
    EXPECT_EQ(from_parts.path, from_lines.path);
    EXPECT_EQ(from_parts.size.b(), from_lines.size.b());
    EXPECT_EQ(from_parts.blocks, from_lines.blocks);
    EXPECT_EQ(from_parts.replication, from_lines.replication);
    ASSERT_GT(from_lines.blocks, 6u);  // more than one RS(6,3) stripe
    EXPECT_FALSE(b.chunk_payload("/t", 0, 0).empty());
    expect_same_chunks(a, b, "/t");

    // A loss encodes the parity; both files encode the same bytes.
    const int victim = a.stripe_nodes("/t", 0)[1];
    a.fail_datanode(victim);
    b.fail_datanode(victim);
    expect_same_chunks(a, b, "/t");
    EXPECT_EQ(lines_of(b, "/t"), lines);
  }
  // The flat single-disk model too.
  Dfs a, b;
  write_lines(a, "/t", lines);
  b.write_parts("/t", as_parts(lines));
  expect_same_chunks(a, b, "/t");
  EXPECT_EQ(lines_of(b, "/t"), lines);
}

TEST(DfsText, PartsMustEndALine) {
  Dfs fs;
  EXPECT_THROW(fs.write_parts("/t", {"a\n", "b"}), tsx::Error);
  EXPECT_FALSE(fs.exists("/t"));
  const FileStatus st = fs.write_parts("/t", {"", "", ""});
  EXPECT_EQ(st.size.b(), 0.0);
  EXPECT_EQ(st.blocks, 1u);
  EXPECT_TRUE(lines_of(fs, "/t").empty());
}

TEST(DfsText, ForEachLineYieldsReadTextLinesHealthyAndDegraded) {
  const std::vector<std::string> lines = ragged_text();
  Dfs rs(rs63_config(), 42);
  rs.write_parts("/t", as_parts(lines));
  EXPECT_EQ(lines_of(rs, "/t"), lines);
  // Up to m = 3 losses in one stripe, data chunks included.
  const std::vector<int> nodes = rs.stripe_nodes("/t", 0);
  for (const int slot : {0, 4, 7}) {
    rs.fail_datanode(nodes[static_cast<std::size_t>(slot)]);
    EXPECT_EQ(lines_of(rs, "/t"), lines) << "after slot " << slot;
  }
  EXPECT_GT(rs.stats().reconstructed_chunks, 0u);
  EXPECT_EQ(rs.stats().chunks_unreadable, 0u);

  Dfs rep(replicated_config(), 7);
  rep.write_parts("/t", as_parts(lines));
  EXPECT_EQ(lines_of(rep, "/t"), lines);
  const std::vector<int> replicas = rep.stripe_nodes("/t", 0);
  rep.fail_datanode(replicas[0]);  // the replica that holds the bytes
  rep.fail_datanode(replicas[1]);
  EXPECT_EQ(lines_of(rep, "/t"), lines);
}

TEST(DfsCluster, ConfigValidationRejectsImpossibleTopology) {
  DfsConfig config = rs_config();
  config.racks = 1;
  config.nodes_per_rack = 3;  // RS(4,2) needs 6 nodes
  EXPECT_FALSE(config.validate().empty());
  EXPECT_THROW(Dfs(config, 42), tsx::Error);
  DfsConfig bad_k = rs_config();
  bad_k.rs_k = 0;
  EXPECT_FALSE(bad_k.validate().empty());
  DfsConfig ok = rs_config();
  EXPECT_TRUE(ok.validate().empty());
  EXPECT_DOUBLE_EQ(ok.storage_overhead(), 1.5);
  EXPECT_EQ(ok.stripe_width(), 6);
}

}  // namespace
}  // namespace tsx::dfs
