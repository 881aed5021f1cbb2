#include "spark/conf.hpp"

#include "core/strings.hpp"

namespace tsx::spark {

namespace {

// Bounds of the integer keys. Executors x cores stays far inside int, and
// the thread bound matches TSX_TASK_THREADS'.
constexpr int kMaxExecutors = 1024;
constexpr int kMaxCores = 1024;
constexpr int kMaxSocket = 63;
constexpr int kMaxTier = 3;
constexpr int kMaxShufflePartitions = 1 << 20;
constexpr int kMaxTaskThreads = 1024;

}  // namespace

SparkConf SparkConf::from(const Config& config) {
  SparkConf conf;
  // Every integer key is range-checked and named on error: a value that
  // does not fit its field is rejected, never narrowed.
  conf.executor_instances = config.get_int_in_or(
      "spark.executor.instances", conf.executor_instances, 1, kMaxExecutors);
  conf.cores_per_executor = config.get_int_in_or(
      "spark.executor.cores", conf.cores_per_executor, 1, kMaxCores);
  conf.cpu_node_bind =
      config.get_int_in_or("spark.cpu.node", conf.cpu_node_bind, 0, kMaxSocket);
  conf.mem_bind = mem::tier_from_index(config.get_int_in_or(
      "spark.mem.tier", mem::index(conf.mem_bind), 0, kMaxTier));
  conf.shuffle_partitions =
      config.get_int_in_or("spark.shuffle.partitions", conf.shuffle_partitions,
                           0, kMaxShufflePartitions);
  conf.intra_run_threads = config.get_int_in_or(
      "spark.task.threads", conf.intra_run_threads, 0, kMaxTaskThreads);
  if (config.contains("spark.shuffle.tier"))
    conf.shuffle_bind = mem::tier_from_index(
        config.get_int_in("spark.shuffle.tier", 0, kMaxTier));
  if (config.contains("spark.cache.tier"))
    conf.cache_bind = mem::tier_from_index(
        config.get_int_in("spark.cache.tier", 0, kMaxTier));
  conf.zero_copy_shuffle =
      config.get_bool_or("spark.shuffle.zerocopy", conf.zero_copy_shuffle);
  return conf;
}

std::string SparkConf::describe() const {
  return strfmt(
      "%d executor(s) x %d core(s), cpunodebind=%d, membind=%s, "
      "shuffle.partitions=%d",
      executor_instances, cores_per_executor, cpu_node_bind,
      mem::to_string(mem_bind).c_str(), effective_shuffle_partitions());
}

}  // namespace tsx::spark
