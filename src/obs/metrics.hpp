// Typed metrics registry: counters and stats::Histogram-backed histograms,
// each keyed by (name, label set).
//
// The registry replaces scattered ad-hoc counters as the single sink the
// observability plane snapshots from. Labels are small ordered key/value
// lists (tier, stage ...); a metric's identity is its name plus
// the canonical label rendering, so the same name with different labels
// yields independent cells and `aggregate` can sum a name across all of
// its label combinations.
//
// Everything is driver-thread-only (like the Recorder that owns one) and
// deterministic: cells live in an ordered map keyed by canonical identity,
// so iteration — and therefore every export — is byte-stable across runs
// and thread counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"

namespace tsx::obs {

/// An ordered list of label key/value pairs. Order-insensitive identity:
/// canonical() sorts by key.
struct LabelSet {
  std::vector<std::pair<std::string, std::string>> kv;

  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> init)
      : kv(init) {}

  /// "k1=v1,k2=v2" with keys sorted; empty string for no labels.
  std::string canonical() const;
};

enum class MetricKind { kCounter, kHistogram };

const char* to_string(MetricKind kind);

/// One histogram cell: fixed-bin density (stats::Histogram) plus the exact
/// moments the quantile readout interpolates against.
struct HistogramCell {
  HistogramCell(double lo, double hi, std::size_t bins)
      : histogram(lo, hi, bins) {}

  stats::Histogram histogram;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void observe(double x);
  /// Quantile estimate by cumulative bin walk with linear interpolation
  /// inside the landing bin, clamped to the observed [min, max].
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
};

class MetricsRegistry {
 public:
  /// Adds `delta` to the counter cell, creating it at zero first.
  void counter_add(const std::string& name, const LabelSet& labels,
                   double delta = 1.0);
  /// Records one observation. The cell's bin layout is fixed by the first
  /// call for that (name, labels); later `lo`/`hi`/`bins` are ignored.
  void observe(const std::string& name, const LabelSet& labels, double x,
               double lo = 0.0, double hi = 1.0, std::size_t bins = 64);

  /// Current value of a counter cell (0 when absent).
  double value(const std::string& name, const LabelSet& labels = {}) const;
  /// Sum of a name's counter cells across every label combination.
  double aggregate(const std::string& name) const;
  /// The histogram cell, or nullptr when absent.
  const HistogramCell* histogram(const std::string& name,
                                 const LabelSet& labels = {}) const;

  struct Row {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    LabelSet labels;
    double value = 0.0;                     ///< counter
    const HistogramCell* cell = nullptr;    ///< histogram
  };
  /// Every cell in canonical (name, labels) order.
  std::vector<Row> snapshot() const;

  std::size_t size() const { return counters_.size() + histograms_.size(); }

 private:
  struct Counter {
    LabelSet labels;
    double value = 0.0;
  };
  /// name + '\x1f' + canonical labels; '\x1f' cannot appear in names.
  static std::string key(const std::string& name, const LabelSet& labels);

  std::map<std::string, Counter> counters_;
  std::map<std::string, std::pair<LabelSet, HistogramCell>> histograms_;
};

}  // namespace tsx::obs
