#include "spark/dataset_memo.hpp"

namespace tsx::spark {

bool DatasetMemo::bind(const std::string& group) {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_ == group) {
    kept_ = true;
    return true;
  }
  group_ = group;
  kept_ = false;
  entries_.clear();
  return false;
}

void DatasetMemo::end_run() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!kept_) entries_.clear();
}

std::size_t DatasetMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace tsx::spark
