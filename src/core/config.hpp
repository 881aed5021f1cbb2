// Typed key-value configuration.
//
// Mirrors Spark's `SparkConf` string-map style ("spark.executor.cores" → "40")
// while giving callers typed, checked accessors with defaults. Also parses
// `--key=value` command-line overrides for the example binaries, and
// strictly parses integer environment knobs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tsx {

class Config {
 public:
  Config() = default;

  /// Sets (or overwrites) a key. Returns *this for chaining.
  Config& set(const std::string& key, const std::string& value);
  Config& set_int(const std::string& key, std::int64_t value);
  Config& set_double(const std::string& key, double value);
  Config& set_bool(const std::string& key, bool value);

  bool contains(const std::string& key) const;

  /// Typed getters: throw tsx::Error on missing key or parse failure,
  /// including an integer outside the 64-bit range and a double that is
  /// NaN, infinite or overflows.
  std::string get(const std::string& key) const;
  std::int64_t get_int(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  /// An int under `parse_int`'s rules: anything but a whole decimal
  /// integer in [lo, hi] throws tsx::Error naming the key. The `_or` form
  /// returns `dflt` for a missing key.
  int get_int_in(const std::string& key, int lo, int hi) const;
  int get_int_in_or(const std::string& key, int dflt, int lo, int hi) const;

  /// Typed getters with defaults: never throw on a missing key.
  std::string get_or(const std::string& key, const std::string& dflt) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t dflt) const;
  double get_double_or(const std::string& key, double dflt) const;
  bool get_bool_or(const std::string& key, bool dflt) const;

  /// Parses `--key=value` arguments; unrecognized arguments are returned
  /// untouched (positional arguments for the caller).
  std::vector<std::string> parse_args(int argc, const char* const* argv);

  /// All entries, sorted by key (for dumping effective configuration).
  std::vector<std::pair<std::string, std::string>> entries() const;

 private:
  std::map<std::string, std::string> values_;
};

/// Strict parse of a command-line or environment value: anything but a
/// whole decimal integer in [lo, hi] (no sign prefix '+', no surrounding
/// space, no trailing text) throws tsx::Error naming `field`.
int parse_int(std::string_view text, std::string_view field, int lo, int hi);

/// Strict parse of a seed-like value under `parse_int`'s rules over the
/// whole range [0, 2^64 - 1]: a sign, overflow or any stray text throws
/// tsx::Error naming `field`.
std::uint64_t parse_u64(std::string_view text, std::string_view field);

/// Strict parse of a decimal floating-point value in [lo, hi]; empty text,
/// trailing text, NaN and out-of-range values throw tsx::Error naming
/// `field`.
double parse_double(std::string_view text, std::string_view field, double lo,
                    double hi);

/// Strict parse of an integer environment knob: unset gives nothing, and
/// anything `parse_int` rejects throws tsx::Error, naming the variable.
std::optional<int> env_int(const char* name, int lo, int hi);

}  // namespace tsx
