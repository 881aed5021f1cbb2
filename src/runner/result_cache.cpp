#include "runner/result_cache.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/json.hpp"
#include "runner/serialize.hpp"

namespace tsx::runner {

namespace {

/// The store's first line: its format name and version.
std::string store_header() {
  std::string out;
  json::Writer(out).begin_object().field("format", "tsx-run-cache").field(
      "version", ResultCache::kStoreVersion).end_object();
  return out;
}

}  // namespace

std::optional<workloads::RunResult> ResultCache::find(
    const workloads::RunConfig& config) const {
  const std::uint64_t key = workloads::stable_hash(config);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    for (const workloads::RunResult& r : it->second) {
      if (r.config == config) {
        ++hits_;
        return r;
      }
    }
  }
  ++misses_;
  return std::nullopt;
}

void ResultCache::insert(const workloads::RunResult& result) {
  const std::uint64_t key = workloads::stable_hash(result.config);
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<workloads::RunResult>& bucket = map_[key];
  for (workloads::RunResult& r : bucket) {
    if (r.config == result.config) {
      r = result;
      return;
    }
  }
  bucket.push_back(result);
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, bucket] : map_) n += bucket.size();
  return n;
}

std::uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

bool ResultCache::save(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << store_header() << '\n';
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, bucket] : map_)
    for (const workloads::RunResult& r : bucket) file << to_json(r) << "\n";
  return static_cast<bool>(file);
}

bool ResultCache::load(const std::string& path) {
  std::ifstream file(path);
  if (!file) return false;
  std::string line;
  if (!std::getline(file, line)) return false;
  if (line != store_header()) return false;

  // A store can be torn mid-line by a crashed writer or a concurrent
  // append; one bad record must not discard the healthy majority. Skip
  // unparsable lines, keep count, and warn once per process.
  std::vector<workloads::RunResult> parsed;
  std::uint64_t skipped = 0;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    workloads::RunResult r;
    if (!result_from_json(line, &r)) {
      ++skipped;
      continue;
    }
    parsed.push_back(std::move(r));
  }
  for (const workloads::RunResult& r : parsed) insert(r);
  if (skipped > 0) {
    static std::once_flag warned;
    std::call_once(warned, [&] {
      std::fprintf(stderr,
                   "tsx: run cache %s: skipped %llu corrupted record "
                   "line(s); healthy records loaded\n",
                   path.c_str(), static_cast<unsigned long long>(skipped));
    });
    std::lock_guard<std::mutex> lock(mutex_);
    load_skipped_ += skipped;
  }
  return true;
}

std::uint64_t ResultCache::load_skipped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return load_skipped_;
}

ResultCache& ResultCache::global() {
  static ResultCache cache;
  return cache;
}

}  // namespace tsx::runner
