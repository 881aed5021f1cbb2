#include "spark/dataset_memo.hpp"

namespace tsx::spark {

bool DatasetMemo::bind(const std::string& group) {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_ == group) {
    admit_ = true;
    return true;
  }
  group_ = group;
  admit_ = false;
  entries_.clear();
  return false;
}

std::size_t DatasetMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace tsx::spark
