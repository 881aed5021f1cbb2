#include "spark/dataset_memo.hpp"

namespace tsx::spark {

void DatasetMemo::bind(const std::string& group) {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_ == group) {
    admit_ = true;
    return;
  }
  group_ = group;
  admit_ = false;
  entries_.clear();
}

std::size_t DatasetMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace tsx::spark
