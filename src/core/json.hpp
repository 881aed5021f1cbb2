// The one JSON codec: every JSON byte the library writes, and every JSON
// document it reads back, goes through this file.
//
// The format is JSON plus one extension: non-finite doubles are the exact
// bare tokens %.17g prints for them, `inf`/`-inf`/`nan`/`-nan` (the wear
// model's projected lifetime is infinite for read-only runs). Doubles are
// written with %.17g, which round-trips every finite double bit for bit.
//
// `Writer` streams compact JSON in the caller's field order; its string
// quoter is the only one (it escapes `"`, `\` and every byte below 0x20).
// `parse` is strict: anything but one complete document throws tsx::Error.
// A parsed `Value` remembers its key, and its typed accessors go through
// `parse_int`/`parse_u64`/`parse_double`, so a bad token is rejected with
// a diagnostic naming the field. A tree views the text it was parsed from,
// which must outlive it. The parser reads the escapes the writer writes
// (`\"`, `\\`, `\n`, `\r`, `\t` and ASCII `\u00XX`) and plain member
// names; other escapes are rejected.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/error.hpp"

namespace tsx::json {

/// A double as its %.17g token.
std::string number(double value);

/// Appends compact JSON to `out`, placing commas itself; inside an
/// object, `key` goes before each value.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view name);

  Writer& value(double v);
  Writer& value(bool v) { return raw(v ? "true" : "false"); }
  Writer& value(std::string_view text);  ///< quoted
  Writer& value(const char* text) { return value(std::string_view(text)); }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Writer& value(T v) {
    return raw(std::to_string(v));
  }
  Writer& null() { return raw("null"); }
  /// An already-encoded token, appended verbatim.
  Writer& raw(std::string_view token);

  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

 private:
  void separate();
  Writer& open(char bracket);
  Writer& close(char bracket);

  std::string& out_;
  bool first_ = true;       ///< the open container has no element yet
  bool after_key_ = false;  ///< a key was written; its value is next
};

/// One parsed value. Object members keep their document order.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  bool is(Kind kind) const { return kind_ == kind; }
  /// The field as diagnostics print it: the member name, or `name[i]` for
  /// an element of the array `name`.
  std::string name() const;
  /// A string's unescaped bytes, or the raw token of another scalar.
  std::string_view text() const {
    return unescaped_.empty() ? raw_ : std::string_view(unescaped_);
  }
  /// Array elements or object members.
  const std::vector<Value>& items() const { return items_; }

  /// The member called `name`, or nullptr (also for a non-object).
  /// Lookups in document order cost O(1) each.
  const Value* find(std::string_view name) const;
  /// As `find`, but a missing member or a non-object throws.
  const Value& at(std::string_view name) const;

  /// Typed reads: a value of another kind, or a token not wholly in range,
  /// throws naming the field. `as_double` also takes the extension tokens.
  double as_double() const;
  std::uint64_t as_u64() const;
  int as_int() const;
  bool as_bool() const;
  std::string as_string() const;
  /// An enum through its range-checked `from_index` codec; an index the
  /// codec rejects throws naming the field.
  template <typename E>
  E as_enum(E (*from_index)(int)) const {
    const int i = as_int();
    try {
      return from_index(i);
    } catch (const Error&) {
      reject("is out of range");
    }
  }

  /// Throws tsx::Error `name="text" <what>` (`name <what>` for a container).
  [[noreturn]] void reject(std::string_view what) const;

 private:
  friend class Parser;
  template <typename Fn>
  auto typed(Fn parse) const;

  Kind kind_ = Kind::kNull;
  std::int64_t index_ = -1;  ///< position in the parent array, or -1
  std::string_view key_;
  std::string_view raw_;     ///< the token or string body in the source
  std::string unescaped_;    ///< a string body with escapes, decoded
  std::vector<Value> items_;
  mutable std::size_t next_ = 0;  ///< where the next `find` starts
};

/// Parses one JSON document; throws tsx::Error on malformed input.
Value parse(std::string_view text);

}  // namespace tsx::json
