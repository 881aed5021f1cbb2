// Simulated distributed file system (the HDFS substrate).
//
// The paper stores Spark job input/output on HDFS running on the same node;
// this module grew from that flat single-disk model into a cluster DFS: a
// topology of racks x datanodes (failure domains), pluggable redundancy —
// replication-N or striped Reed-Solomon RS(k,m) — failure-domain-aware
// chunk placement, degraded reads that reconstruct from any k surviving
// chunks, and a deterministic repair schedule the fault controller executes
// as background flows through the shared storage channel.
//
// The default configuration (replication-1, one datanode) reproduces the
// original cost model bit for bit: the read/write charge formulas collapse
// to exactly the old per-block seek + transfer arithmetic, and the healthy
// read path performs no state writes, so the parallel data plane may call
// it from pool threads. The transfer itself runs through the machine's
// storage channel (mem::MachineModel), which states the disk bandwidth.
//
// File *content* is held for real, as bytes in the data chunks' payloads
// under either codec (a replicated block's bytes live with its first
// replica), so degraded reads and repairs are verifiable byte-for-byte in
// tests rather than just cost-accounted. Text goes in as partition buffers
// of '\n'-terminated lines and comes out line by line through
// for_each_line, the one splitter; no file holds a vector of lines. An RS
// write stores the data chunks and leaves the stripe's parity pending; the
// parity bytes are encoded from the still-intact data on the stripe's first
// chunk loss, before that chunk goes absent, so every decode reads real
// parity. Charges depend only on chunk lengths and counts, never on whether
// parity has been encoded yet.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/units.hpp"
#include "dfs/codec.hpp"
#include "dfs/options.hpp"
#include "dfs/repair.hpp"
#include "dfs/topology.hpp"

namespace tsx::obs {
class Recorder;
}
namespace tsx::sim {
class Simulator;
}

namespace tsx::dfs {

struct BlockId {
  std::uint64_t value = 0;
  auto operator<=>(const BlockId&) const = default;
};

struct FileStatus {
  std::string path;
  Bytes size;
  std::size_t blocks = 0;
  int replication = 1;
};

/// Per-block positioning/request overhead of a datanode's disk (the
/// testbed used SATA SSDs).
inline constexpr Duration kBlockSeek = Duration::micros(100);

/// What one engine-level read/write costs: fixed positioning overhead plus
/// the bytes to stream through the shared storage channel (amplified under
/// degraded or encoded operation).
struct IoCharge {
  Duration seek;
  Bytes disk;
};

class Dfs {
 public:
  /// Topology, codec and repair knobs from `config` (the default is the
  /// flat single-disk model); placement is a pure function of (seed, path,
  /// stripe).
  explicit Dfs(const DfsConfig& config = {}, std::uint64_t seed = 0);

  /// Creates (or overwrites) a text file from partition buffers: each is a
  /// run of '\n'-terminated lines, and the file is their concatenation in
  /// order. Each buffer is copied straight into the data chunks and freed
  /// as soon as it is consumed. Returns the file's status.
  FileStatus write_parts(const std::string& path,
                         std::vector<std::string> parts);

  /// Calls `fn` with every line of a text file, in order and without its
  /// '\n'; the view is valid only during the call. Throws if the file is
  /// missing or provisioned. Under RS with lost chunks the content is
  /// reconstructed from any k survivors (byte-identical); throws if a
  /// stripe has fewer than k chunks left.
  void for_each_line(const std::string& path,
                     const std::function<void(std::string_view)>& fn);

  /// Registers a content-less file (the workload's nominal input dataset)
  /// so its chunks participate in placement, loss and repair. Reading it
  /// throws; status/list/accounting see it like any other file.
  FileStatus provision(const std::string& path, Bytes size);

  bool exists(const std::string& path) const;
  void remove(const std::string& path);
  FileStatus status(const std::string& path) const;
  std::vector<std::string> list() const;

  // ---- cost model ------------------------------------------------------

  /// What the engine charges for a job-boundary read/write: seek overhead
  /// to the task's I/O bill, `disk` bytes through the machine's shared
  /// storage channel. Reads amplify when data chunks are lost (RS degraded
  /// reads touch k chunks instead of one); writes pay the codec (extra
  /// replicas or parity). The healthy read path is state-write-free and
  /// thread-safe; degraded reads only occur in (serial) fault mode.
  IoCharge read_charge(Bytes bytes);
  IoCharge write_charge(Bytes bytes) const;

  // ---- failure + repair surface (fault controller) ---------------------

  /// Permanently loses a datanode: chunks on it become absent (payloads
  /// are dropped from service, not recovered by anything but repair).
  void fail_datanode(int node);
  /// Takes a whole rack offline (partition: disks keep their bytes) /
  /// brings it back, restoring every chunk repair has not yet relocated.
  void fail_rack(int rack);
  void recover_rack(int rack);

  /// The namenode's repair plan for every absent chunk that is still
  /// reconstructible: deterministic order (path, stripe, slot), targets
  /// chosen rack-aware. Pure — call repeatedly, apply incrementally.
  RepairSchedule plan_repair() const;
  /// Executes one planned task: reconstructs the chunk (for real RS files,
  /// byte-for-byte from survivors) onto `task.target`. Returns false — and
  /// counts a cancellation — when the chunk healed in the meantime.
  bool apply_repair(const RepairTask& task);

  /// Repair-wave accounting hooks for the controller driving the flows.
  void note_repair_wave() { ++stats_.repair_waves; }
  void note_repair_traffic(Bytes read, Bytes written, double seconds);

  // ---- observability ---------------------------------------------------

  /// Wires span emission (`dfs.read` / `dfs.write` under the open run) to
  /// the run's recorder; null detaches. Purely observational.
  void set_obs(obs::Recorder* recorder, sim::Simulator* simulator);

  // ---- introspection ---------------------------------------------------

  Bytes block_size() const { return block_size_; }
  int replication() const { return config_.replication; }
  const DfsConfig& config() const { return config_; }
  const Cluster& cluster() const { return cluster_; }
  const DfsStats& stats() const { return stats_; }

  /// Fraction of data chunks currently absent (drives read amplification).
  double degraded_fraction() const;

  /// Datanodes hosting each chunk of `path`'s stripe `stripe`, in slot
  /// order — the placement invariants' test surface.
  std::vector<int> stripe_nodes(const std::string& path,
                                std::size_t stripe) const;

  /// The bytes slot `slot` of `path`'s stripe `stripe` holds — the content
  /// invariants' test surface. Empty for parity not yet encoded and for a
  /// replicated block's later replicas.
  const ChunkData& chunk_payload(const std::string& path, std::size_t stripe,
                                 std::size_t slot) const;

  /// Aggregate statistics. `bytes_stored` charges full blocks (last-block
  /// padding included) times the codec's physical width.
  std::size_t file_count() const { return files_.size(); }
  std::size_t block_count() const;
  Bytes bytes_stored() const;

  std::size_t blocks_for(Bytes size) const;

 private:
  struct Chunk {
    int node = -1;
    bool present = true;
    /// Physical payload bytes of a data chunk or an encoded parity chunk.
    /// A replicated block's bytes live in its first replica only (the other
    /// replicas are identical and not duplicated on the host); virtual
    /// files hold none. Empty for the parity chunks of a `parity_pending`
    /// stripe.
    ChunkData payload;
    /// Logical bytes this chunk covers (may be < block_size at file end).
    std::size_t length = 0;
  };
  struct Stripe {
    /// Data chunks first (RS: k_eff of them), then parity (RS: m) or the
    /// remaining replicas (replication: copies 2..N of one block).
    std::vector<Chunk> chunks;
    int data = 1;  ///< count of data slots
    /// RS parity owed but not yet encoded: set at write for real files with
    /// parity slots, cleared by encode_parity before the first chunk loss.
    bool parity_pending = false;
  };
  struct File {
    Bytes size;
    std::vector<BlockId> blocks;
    bool is_virtual = false;
    std::vector<Stripe> stripes;
  };

  File make_file(const std::string& path, std::vector<std::string> parts,
                 Bytes size, bool is_virtual);
  void insert_file(const std::string& path, File file);
  void release_counters(const File& file);
  void node_down(int node);
  void encode_parity(Stripe& stripe);
  std::vector<ChunkData> reconstruct_data(const Stripe& stripe) const;
  void emit_span(const char* name, const std::string& category,
                 const std::string& path, Bytes bytes);

  DfsConfig config_;
  std::uint64_t seed_ = 0;
  Bytes block_size_;
  Cluster cluster_;
  std::map<std::string, File> files_;
  std::uint64_t next_block_ = 1;

  /// Permanent node deaths (crashes); rack recovery skips these.
  std::vector<char> dead_;
  std::uint64_t total_data_chunks_ = 0;
  std::uint64_t lost_data_chunks_ = 0;
  DfsStats stats_;

  obs::Recorder* obs_ = nullptr;
  sim::Simulator* sim_ = nullptr;
};

}  // namespace tsx::dfs
