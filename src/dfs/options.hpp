// Configuration and result summary of the cluster DFS.
//
// DfsConfig is embedded in workloads::RunConfig, so every knob here is part of
// a run's identity: it appears in the canonical config key and the serialized
// config. The default configuration — replication-1 on a single datanode — is
// exactly the flat single-disk model the engine shipped with, and runs under it
// are bit-identical to the pre-cluster code path.
//
// Everything is deterministic: chunk placement is a pure function of
// (RunConfig::seed, path, stripe index), and the repair schedule is a pure
// function of the surviving placement — the same seed always replays the
// same layout and the same recovery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace tsx::dfs {

/// Redundancy scheme for file blocks.
enum class CodecKind {
  kReplication = 0,  ///< each block stored `replication` times
  kRs = 1,           ///< Reed-Solomon stripes: k data chunks + m parity
};

std::string to_string(CodecKind codec);
/// Range-checked inverse of `static_cast<int>(codec)`.
CodecKind codec_from_index(int i);

struct DfsConfig {
  CodecKind codec = CodecKind::kReplication;
  /// Copies per block under kReplication (1 = no redundancy).
  int replication = 1;
  /// Stripe geometry under kRs: k data chunks protected by m parity chunks;
  /// any k of the k+m survive a read.
  int rs_k = 6;
  int rs_m = 3;

  // --- Topology ---------------------------------------------------------
  /// Failure domains: racks * nodes_per_rack datanodes, each with its own
  /// disk. The placement policy spreads a stripe's chunks across racks and
  /// never co-locates two chunks of one stripe on a node.
  int racks = 1;
  int nodes_per_rack = 1;

  /// DFS block size in MiB (one chunk = one block).
  double block_mib = 128.0;

  int total_nodes() const { return racks * nodes_per_rack; }
  /// Chunks written per stripe: replication copies or k + m RS chunks.
  int stripe_width() const;
  /// Data chunks per stripe (1 for replication, k for RS).
  int data_chunks() const;
  /// Raw-to-logical storage blowup (replication factor or (k+m)/k).
  double storage_overhead() const;

  /// Structured range and conflict checks over every knob. Empty means
  /// valid. Aggregated by RunConfig::validate (with a "dfs." field prefix)
  /// and enforced by the Dfs constructor.
  std::vector<Diagnostic> validate() const;

  friend bool operator==(const DfsConfig&, const DfsConfig&) = default;
};

/// What the storage tier lost and what repair cost — the itemized bill a
/// robustness report prints next to the memory-tier economics.
struct DfsStats {
  // Injections.
  std::uint64_t datanodes_lost = 0;
  std::uint64_t racks_lost = 0;
  std::uint64_t racks_recovered = 0;

  // Damage.
  std::uint64_t chunks_lost = 0;
  std::uint64_t chunks_unreadable = 0;  ///< stripes past their codec budget

  // Degraded service.
  std::uint64_t degraded_reads = 0;
  std::uint64_t reconstructed_chunks = 0;

  // Repair pipeline.
  std::uint64_t repair_waves = 0;
  std::uint64_t chunks_repaired = 0;
  std::uint64_t repair_tasks_cancelled = 0;  ///< healed before repair landed
  Bytes repair_read_bytes;
  Bytes repair_write_bytes;
  /// Total virtual time repair flows occupied the storage channel.
  double repair_seconds = 0.0;
};

}  // namespace tsx::dfs
