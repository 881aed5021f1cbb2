#include "obs/options.hpp"

namespace tsx::obs {

std::vector<Diagnostic> ObsConfig::validate() const {
  std::vector<Diagnostic> out;
  // The filter spec is persisted verbatim inside the serialized config
  // JSON and the canonical config key, so the characters those formats
  // use as structure are off limits.
  for (const char c : trace_filter) {
    if (c == '"' || c == '\\' || c == ';' || c == '\n' || c == '\t' ||
        c == '\r' || c == ' ') {
      out.push_back({"trace_filter",
                     "may not contain quotes, backslashes, semicolons or "
                     "whitespace"});
      break;
    }
  }
  return out;
}

CategoryFilter CategoryFilter::parse(const std::string& spec) {
  CategoryFilter f;
  f.spec_ = spec;
  std::size_t at = 0;
  while (at <= spec.size()) {
    std::size_t comma = spec.find(',', at);
    if (comma == std::string::npos) comma = spec.size();
    std::string token = spec.substr(at, comma - at);
    at = comma + 1;
    // Trim surrounding whitespace.
    const std::size_t a = token.find_first_not_of(" \t");
    if (a == std::string::npos) continue;
    token = token.substr(a, token.find_last_not_of(" \t") - a + 1);
    if (token == "*") {  // a lone wildcard makes the whole filter match-all
      f.patterns_.clear();
      f.spec_ = "";
      return f;
    }
    Pattern p;
    if (token.size() >= 2 && token.compare(token.size() - 2, 2, ".*") == 0) {
      p.prefix = true;
      p.text = token.substr(0, token.size() - 1);  // keep the dot
    } else if (token.back() == '*') {
      p.prefix = true;
      p.text = token.substr(0, token.size() - 1);
    } else {
      p.text = std::move(token);
    }
    f.patterns_.push_back(std::move(p));
  }
  return f;
}

bool CategoryFilter::matches(const std::string& category) const {
  if (patterns_.empty()) return true;
  for (const Pattern& p : patterns_) {
    if (p.prefix) {
      if (category.compare(0, p.text.size(), p.text) == 0) return true;
    } else if (category == p.text) {
      return true;
    }
  }
  return false;
}

}  // namespace tsx::obs
