#include "core/config.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <system_error>

#include "core/error.hpp"
#include "core/strings.hpp"

namespace tsx {

std::vector<std::string> Config::parse_args(int argc,
                                            const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional.emplace_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos)
      values_[std::string(arg.substr(2))] = "true";
    else
      values_[std::string(arg.substr(2, eq - 2))] = arg.substr(eq + 1);
  }
  return positional;
}

int Config::get_int_in(const std::string& key, int lo, int hi) const {
  const auto it = values_.find(key);
  TSX_CHECK(it != values_.end(), "missing config key: " + key);
  return parse_int(it->second, key, lo, hi);
}

int Config::get_int_in_or(const std::string& key, int dflt, int lo,
                          int hi) const {
  return values_.count(key) > 0 ? get_int_in(key, lo, hi) : dflt;
}

std::string Config::get_or(const std::string& key,
                           const std::string& dflt) const {
  const auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

double Config::get_double_or(const std::string& key, double dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  return parse_double(it->second, key, std::numeric_limits<double>::lowest(),
                      std::numeric_limits<double>::max());
}

bool Config::get_bool_or(const std::string& key, bool dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  const std::string& raw = it->second;
  if (raw == "true" || raw == "1" || raw == "yes") return true;
  if (raw == "false" || raw == "0" || raw == "no") return false;
  TSX_FAIL("config key " + key + " is not a boolean: " + raw);
}

int parse_int(std::string_view text, std::string_view field, int lo,
              int hi) {
  int value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  TSX_CHECK(!text.empty() && ec == std::errc{} &&
                end == text.data() + text.size() && value >= lo &&
                value <= hi,
            strfmt("%.*s=\"%.*s\" is not an integer in [%d, %d]",
                   static_cast<int>(field.size()), field.data(),
                   static_cast<int>(text.size()), text.data(), lo, hi));
  return value;
}

std::uint64_t parse_u64(std::string_view text, std::string_view field) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  TSX_CHECK(!text.empty() && ec == std::errc{} &&
                end == text.data() + text.size(),
            strfmt("%.*s=\"%.*s\" is not an unsigned 64-bit integer",
                   static_cast<int>(field.size()), field.data(),
                   static_cast<int>(text.size()), text.data()));
  return value;
}

double parse_double(std::string_view text, std::string_view field, double lo,
                    double hi) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  TSX_CHECK(!text.empty() && ec == std::errc{} &&
                end == text.data() + text.size() && value >= lo &&
                value <= hi,
            strfmt("%.*s=\"%.*s\" is not a number in [%g, %g]",
                   static_cast<int>(field.size()), field.data(),
                   static_cast<int>(text.size()), text.data(), lo, hi));
  return value;
}

std::optional<int> env_int(const char* name, int lo, int hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return parse_int(raw, std::string("environment variable ") + name, lo, hi);
}

}  // namespace tsx
