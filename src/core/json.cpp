#include "core/json.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "core/config.hpp"
#include "core/strings.hpp"

namespace tsx::json {

std::string number(double value) {
  // The bytes "%.17g" writes (core_test pins the equality), at a fraction
  // of snprintf's cost.
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, value, std::chars_format::general, 17);
  return std::string(buf, r.ptr);
}

// ---- writer ----------------------------------------------------------------

void Writer::separate() {
  if (!after_key_ && !first_) out_ += ',';
  after_key_ = false;
  first_ = false;
}

Writer& Writer::open(char bracket) {
  separate();
  out_ += bracket;
  first_ = true;
  return *this;
}

Writer& Writer::close(char bracket) {
  out_ += bracket;
  first_ = false;
  return *this;
}

Writer& Writer::key(std::string_view name) {
  value(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

Writer& Writer::value(double v) { return raw(number(v)); }

Writer& Writer::value(std::string_view text) {
  separate();
  out_ += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out_ += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
    else if (c == '\n') out_ += "\\n";
    else if (c == '\t') out_ += "\\t";
    else if (c == '\r') out_ += "\\r";
    else out_ += strfmt("\\u%04x", static_cast<unsigned>(c));
  }
  out_ += '"';
  return *this;
}

Writer& Writer::raw(std::string_view token) {
  separate();
  out_ += token;
  return *this;
}

// ---- values ----------------------------------------------------------------

std::string Value::name() const {
  const std::string key(key_);
  return index_ < 0 ? key : key + "[" + std::to_string(index_) + "]";
}

void Value::reject(std::string_view what) const {
  std::string message = key_.empty() && index_ < 0 ? "document" : name();
  if (kind_ != Kind::kArray && kind_ != Kind::kObject)
    message += "=\"" + std::string(text()) + "\"";
  TSX_FAIL(message + " " + std::string(what));
}

const Value* Value::find(std::string_view name) const {
  const std::size_t n = kind_ == Kind::kObject ? items_.size() : 0;
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = (next_ + step) % n;
    if (items_[i].key_ == name) {
      next_ = i + 1;
      return &items_[i];
    }
  }
  return nullptr;
}

const Value& Value::at(std::string_view name) const {
  if (kind_ != Kind::kObject) reject("is not an object");
  const Value* member = find(name);
  TSX_CHECK(member != nullptr, "missing field: " + std::string(name));
  return *member;
}

/// `parse(field)` for a number token. An array element's `name[i]` is
/// built only when its token is bad, so a good read allocates nothing.
template <typename Fn>
auto Value::typed(Fn parse) const {
  if (kind_ != Kind::kNumber) reject("is not a number");
  if (index_ < 0) return parse(key_);
  try {
    return parse(std::string_view{});
  } catch (const Error&) {
    return parse(std::string_view(name()));  // throws again, named
  }
}

double Value::as_double() const {
  // The extension, spelled exactly as %.17g prints it: "1e999" and
  // "infinity" are rejected.
  const std::string_view t = raw_;
  if (kind_ == Kind::kNumber &&
      (t == "inf" || t == "-inf" || t == "nan" || t == "-nan")) {
    const double magnitude = t.back() == 'f'
                                 ? std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::quiet_NaN();
    return t.front() == '-' ? -magnitude : magnitude;
  }
  return typed([this](std::string_view field) {
    return parse_double(raw_, field, -std::numeric_limits<double>::max(),
                        std::numeric_limits<double>::max());
  });
}

std::uint64_t Value::as_u64() const {
  return typed(
      [this](std::string_view field) { return parse_u64(raw_, field); });
}

int Value::as_int() const {
  return typed([this](std::string_view field) {
    return parse_int(raw_, field, std::numeric_limits<int>::min(),
                     std::numeric_limits<int>::max());
  });
}

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) reject("is not a boolean");
  return raw_ == "true";
}

std::string Value::as_string() const {
  if (kind_ != Kind::kString) reject("is not a string");
  return std::string(text());
}

// ---- parser ----------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value({}, 0);
    skip_ws();
    TSX_CHECK(pos_ == text_.size(),
              strfmt("trailing bytes after JSON value at offset %zu", pos_));
    return v;
  }

 private:
  /// Deeper than any document the library writes; the bound keeps hostile
  /// input from exhausting the stack.
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const {
    TSX_CHECK(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }

  /// Consumes `c` if it is next (after whitespace).
  bool accept(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    TSX_CHECK(accept(c), strfmt("expected '%c' at offset %zu", c, pos_));
  }

  Value value(std::string_view key, int depth) {
    TSX_CHECK(depth < kMaxDepth, "JSON nested too deeply");
    Value v;
    v.key_ = key;
    if (accept('{')) {
      v.kind_ = Value::Kind::kObject;
      if (accept('}')) return v;
      do {
        Value name;
        string(name);
        TSX_CHECK(name.unescaped_.empty(),
                  strfmt("escaped member name at offset %zu", pos_));
        expect(':');
        v.items_.push_back(value(name.raw_, depth + 1));
      } while (accept(','));
      expect('}');
    } else if (accept('[')) {
      v.kind_ = Value::Kind::kArray;
      if (accept(']')) return v;
      do {
        v.items_.push_back(value(key, depth + 1));
        v.items_.back().index_ = static_cast<std::int64_t>(v.items_.size()) - 1;
      } while (accept(','));
      expect(']');
    } else if (peek() == '"') {
      v.kind_ = Value::Kind::kString;
      string(v);
    } else {
      token(v);
    }
    return v;
  }

  /// A string literal: `v.raw_` is its body as written and, when the body
  /// holds escapes, `v.unescaped_` the decoded bytes.
  void string(Value& v) {
    static constexpr std::string_view kEscapes = "\"\\nrt";
    static constexpr std::string_view kDecoded = "\"\\\n\r\t";
    expect('"');
    const std::size_t begin = pos_;
    std::string& out = v.unescaped_;
    bool escaped = false;
    for (char c; (c = peek()) != '"';) {
      TSX_CHECK(static_cast<unsigned char>(c) >= 0x20,
                strfmt("control byte in string at offset %zu", pos_));
      ++pos_;
      if (c != '\\') {
        if (escaped) out += c;
        continue;
      }
      if (!escaped) out.assign(text_.substr(begin, pos_ - 1 - begin));
      escaped = true;
      const char e = peek();
      ++pos_;
      if (const std::size_t k = kEscapes.find(e); k != std::string_view::npos) {
        out += kDecoded[k];
        continue;
      }
      unsigned code = 0;
      const char* hex = text_.data() + pos_;
      const std::size_t digits = std::min<std::size_t>(4, text_.size() - pos_);
      const auto [end, ec] = std::from_chars(hex, hex + digits, code, 16);
      TSX_CHECK(e == 'u' && ec == std::errc{} && end == hex + 4 && code < 0x80,
                strfmt("bad escape in string at offset %zu", pos_ - 2));
      out += static_cast<char>(code);
      pos_ += 4;
    }
    v.raw_ = text_.substr(begin, pos_ - begin);
    ++pos_;
  }

  /// A bare token: a number, true/false/null or an extension token. The
  /// typed accessors decide whether a number token is wholly valid.
  void token(Value& v) {
    const auto token_char = [](char c) {
      return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
             (c >= 'A' && c <= 'Z') || c == '+' || c == '-' || c == '.';
    };
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && token_char(text_[pos_])) ++pos_;
    v.raw_ = text_.substr(begin, pos_ - begin);
    if (v.raw_.empty())
      TSX_FAIL(v.key_.empty()
                   ? strfmt("expected a JSON value at offset %zu", pos_)
                   : std::string(v.key_) + " has no value");
    v.kind_ = v.raw_ == "true" || v.raw_ == "false" ? Value::Kind::kBool
              : v.raw_ == "null"                     ? Value::Kind::kNull
                                                     : Value::Kind::kNumber;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace tsx::json
