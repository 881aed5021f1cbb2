#include "core/config.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "core/error.hpp"
#include "core/strings.hpp"

namespace tsx {

Config& Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
  return *this;
}

Config& Config::set_int(const std::string& key, std::int64_t value) {
  return set(key, std::to_string(value));
}

Config& Config::set_double(const std::string& key, double value) {
  return set(key, strfmt("%.17g", value));
}

Config& Config::set_bool(const std::string& key, bool value) {
  return set(key, value ? "true" : "false");
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  TSX_CHECK(it != values_.end(), "missing config key: " + key);
  return it->second;
}

std::int64_t Config::get_int(const std::string& key) const {
  const std::string raw = get(key);
  char* end = nullptr;
  errno = 0;
  const std::int64_t value = std::strtoll(raw.c_str(), &end, 10);
  TSX_CHECK(end != raw.c_str() && *end == '\0',
            "config key " + key + " is not an integer: " + raw);
  TSX_CHECK(errno != ERANGE,
            "config key " + key + " is out of the 64-bit range: " + raw);
  return value;
}

int Config::get_int_in(const std::string& key, int lo, int hi) const {
  return parse_int(get(key), key, lo, hi);
}

int Config::get_int_in_or(const std::string& key, int dflt, int lo,
                          int hi) const {
  return contains(key) ? get_int_in(key, lo, hi) : dflt;
}

double Config::get_double(const std::string& key) const {
  const std::string raw = get(key);
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  TSX_CHECK(end != raw.c_str() && *end == '\0',
            "config key " + key + " is not a number: " + raw);
  // strtod reads "nan" and "inf", and overflows to infinity.
  TSX_CHECK(std::isfinite(value),
            "config key " + key + " is not a finite number: " + raw);
  return value;
}

bool Config::get_bool(const std::string& key) const {
  const std::string raw = get(key);
  if (raw == "true" || raw == "1" || raw == "yes") return true;
  if (raw == "false" || raw == "0" || raw == "no") return false;
  TSX_FAIL("config key " + key + " is not a boolean: " + raw);
}

std::string Config::get_or(const std::string& key,
                           const std::string& dflt) const {
  return contains(key) ? get(key) : dflt;
}

std::int64_t Config::get_int_or(const std::string& key,
                                std::int64_t dflt) const {
  return contains(key) ? get_int(key) : dflt;
}

double Config::get_double_or(const std::string& key, double dflt) const {
  return contains(key) ? get_double(key) : dflt;
}

bool Config::get_bool_or(const std::string& key, bool dflt) const {
  return contains(key) ? get_bool(key) : dflt;
}

std::vector<std::string> Config::parse_args(int argc,
                                            const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (starts_with(arg, "--")) {
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) {
        set(std::string(arg.substr(2, eq - 2)),
            std::string(arg.substr(eq + 1)));
        continue;
      }
      set(std::string(arg.substr(2)), "true");
      continue;
    }
    positional.emplace_back(arg);
  }
  return positional;
}

std::vector<std::pair<std::string, std::string>> Config::entries() const {
  return {values_.begin(), values_.end()};
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
