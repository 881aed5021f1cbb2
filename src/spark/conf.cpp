#include "spark/conf.hpp"

#include "core/strings.hpp"

namespace tsx::spark {

std::string SparkConf::describe() const {
  return strfmt(
      "%d executor(s) x %d core(s), cpunodebind=%d, membind=%s, "
      "shuffle.partitions=%d",
      executor_instances, cores_per_executor, cpu_node_bind,
      mem::to_string(mem_bind).c_str(), effective_shuffle_partitions());
}

}  // namespace tsx::spark
