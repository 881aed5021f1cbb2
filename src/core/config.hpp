// Command-line flags and strict number parsing.
//
// Config holds the example binaries' `--key=value` flags and hands them out
// through typed, checked getters with defaults. The free parsers read one
// command-line or environment value strictly, naming the flag or variable
// in every error.
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
  /// Parses `--key=value` arguments (a bare `--key` reads as "true");
  /// unrecognized arguments are returned untouched (positional arguments
  /// for the caller). A repeated key keeps its last value.
  std::vector<std::string> parse_args(int argc, const char* const* argv);

  /// An int under `parse_int`'s rules: anything but a whole decimal
  /// integer in [lo, hi] throws tsx::Error naming the key, as does a
  /// missing key. The `_or` form returns `dflt` for a missing key.
  int get_int_in(const std::string& key, int lo, int hi) const;
  int get_int_in_or(const std::string& key, int dflt, int lo, int hi) const;

  /// Getters with defaults: a missing key gives `dflt`. A finite double
  /// under `parse_double`'s rules, and a boolean spelled true/1/yes or
  /// false/0/no; anything else throws tsx::Error naming the key.
  std::string get_or(const std::string& key, const std::string& dflt) const;
  double get_double_or(const std::string& key, double dflt) const;
  bool get_bool_or(const std::string& key, bool dflt) const;

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
