#include "obs/metrics.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace tsx::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::string LabelSet::canonical() const {
  auto sorted = kv;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

void HistogramCell::observe(double x) {
  histogram.add(x);
  if (count == 0 || x < min) min = x;
  if (count == 0 || x > max) max = x;
  ++count;
  sum += x;
}

double HistogramCell::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double rank = q * static_cast<double>(count);
  double below = 0.0;
  for (std::size_t b = 0; b < histogram.bin_count(); ++b) {
    const double in_bin = static_cast<double>(histogram.count(b));
    if (below + in_bin >= rank && in_bin > 0.0) {
      const double frac = (rank - below) / in_bin;
      const double est =
          histogram.bin_lo(b) + frac * (histogram.bin_hi(b) - histogram.bin_lo(b));
      return std::min(std::max(est, min), max);
    }
    below += in_bin;
  }
  return max;
}

std::string MetricsRegistry::key(const std::string& name,
                                 const LabelSet& labels) {
  return name + '\x1f' + labels.canonical();
}

void MetricsRegistry::counter_add(const std::string& name,
                                  const LabelSet& labels, double delta) {
  Counter& cell = counters_[key(name, labels)];
  if (cell.labels.kv.empty()) cell.labels = labels;
  cell.value += delta;
}

void MetricsRegistry::observe(const std::string& name, const LabelSet& labels,
                              double x, double lo, double hi,
                              std::size_t bins) {
  const std::string k = key(name, labels);
  auto it = histograms_.find(k);
  if (it == histograms_.end()) {
    TSX_CHECK(hi > lo && bins > 0, "histogram needs hi > lo and bins > 0");
    it = histograms_
             .emplace(k, std::make_pair(labels, HistogramCell(lo, hi, bins)))
             .first;
  }
  it->second.second.observe(x);
}

double MetricsRegistry::value(const std::string& name,
                              const LabelSet& labels) const {
  const auto it = counters_.find(key(name, labels));
  return it == counters_.end() ? 0.0 : it->second.value;
}

double MetricsRegistry::aggregate(const std::string& name) const {
  const std::string prefix = name + '\x1f';
  double total = 0.0;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    total += it->second.value;
  return total;
}

const HistogramCell* MetricsRegistry::histogram(const std::string& name,
                                                const LabelSet& labels) const {
  const auto it = histograms_.find(key(name, labels));
  return it == histograms_.end() ? nullptr : &it->second.second;
}

std::vector<MetricsRegistry::Row> MetricsRegistry::snapshot() const {
  std::vector<Row> rows;
  rows.reserve(size());
  const auto name_of = [](const std::string& k) {
    return k.substr(0, k.find('\x1f'));
  };
  for (const auto& [k, cell] : counters_) {
    Row row;
    row.name = name_of(k);
    row.labels = cell.labels;
    row.value = cell.value;
    rows.push_back(std::move(row));
  }
  for (const auto& [k, cell] : histograms_) {
    Row row;
    row.name = name_of(k);
    row.kind = MetricKind::kHistogram;
    row.labels = cell.first;
    row.cell = &cell.second;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels.canonical() < b.labels.canonical();
  });
  return rows;
}

}  // namespace tsx::obs
