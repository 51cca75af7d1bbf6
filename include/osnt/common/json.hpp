// Strict recursive-descent JSON reader shared by every declarative input
// the simulator accepts (fault plans, topology files), plus the schema
// conventions those inputs share. parse() builds a value tree whose
// errors carry the 1-based line/column of the offending byte; positions
// are tracked incrementally, so parsing is linear in the document size.
// ObjectReader reads one object of that tree against a schema: typed
// getters (numbers, range-checked integers, bools, strings, and times
// given as `<base>_ns|_us|_ms`), and finish() rejects every key no getter
// asked for, so the allowed keys are exactly the keys the loader reads
// (typos must not silently no-op). No external dependency: the toolchain
// image is all we may assume.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "osnt/common/time.hpp"

namespace osnt::json {

/// Parse failure, positioned. what() already includes "line L column C".
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& msg, std::size_t line, std::size_t column)
      : std::runtime_error(msg), line_(line), column_(column) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

struct Value {
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // preserves order
  /// 1-based position of the value's first byte in the source text, so
  /// schema-level errors ("unknown key") can point at the document too.
  std::size_t line = 0;
  std::size_t column = 0;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] bool is(Type t) const noexcept { return type == t; }
  /// "line L column C" — for prefixing schema diagnostics.
  [[nodiscard]] std::string where() const;
};

/// Deepest array/object nesting parse() accepts. The reader recurses
/// once per level, so unbounded nesting would overflow the stack on a
/// hostile document; real inputs nest a handful of levels.
inline constexpr std::size_t kMaxDepth = 128;

/// Parse a complete JSON document (trailing content is an error; so is
/// nesting deeper than kMaxDepth).
/// `context` prefixes error messages, e.g. "topology JSON".
[[nodiscard]] Value parse(const std::string& text,
                          const std::string& context = "JSON");

/// Slurp a file; throws ParseError (line 0) when it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& context = "JSON");

/// Strict reader over one JSON object. Every getter records the key it
/// asked for; finish() then rejects any key that no getter asked for,
/// with its position and a did-you-mean over the asked-for names. A key
/// that a getter asks for and that appears twice is an error too. All
/// errors are ParseErrors reading "<prefix>: <why> (line L column C)",
/// positioned at the offending value (or at the object when a required
/// key is missing). Keys are held as views: pass literals, or strings
/// that outlive the reader. A lookup allocates nothing on success; the
/// asked-key list reserves room for 16 keys up front.
class ObjectReader {
 public:
  /// `prefix` names the object in diagnostics, e.g. "fault plan event 3".
  /// Throws unless `obj` is an object.
  ObjectReader(const Value& obj, std::string prefix);

  /// Rename the object once a field identifies it ("blocks[0] ('q')").
  void set_prefix(std::string prefix) { prefix_ = std::move(prefix); }

  /// The value under `key`, of any type, or nullptr when absent.
  [[nodiscard]] const Value* find(std::string_view key);
  /// The value under `key`, which must be of type `t`, or nullptr.
  [[nodiscard]] const Value* find(std::string_view key, Value::Type t);

  // Optional fields: `fallback` when the key is absent.
  [[nodiscard]] double number(std::string_view key, double fallback);
  [[nodiscard]] bool boolean(std::string_view key, bool fallback);
  [[nodiscard]] std::string string(std::string_view key,
                                   std::string fallback);
  /// A non-negative integer in [lo, hi]; hi defaults to the largest T, so
  /// a value never narrows into its field.
  template <class T>
  [[nodiscard]] T count(std::string_view key, T fallback, std::uint64_t lo = 0,
                        std::uint64_t hi = std::numeric_limits<T>::max()) {
    static_assert(std::is_integral_v<T>);
    const Value* v = find(key);
    return v ? static_cast<T>(to_count(key, *v, lo, hi)) : fallback;
  }
  /// `<base>_ns`, `<base>_us` or `<base>_ms` (at most one), in picoseconds.
  [[nodiscard]] Picos time(std::string_view base, Picos fallback);

  // Required fields: a missing key is an error.
  [[nodiscard]] const Value& required(std::string_view key, Value::Type t);
  [[nodiscard]] double required_number(std::string_view key);
  [[nodiscard]] const std::string& required_string(std::string_view key);
  template <class T>
  [[nodiscard]] T required_count(
      std::string_view key, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<T>::max()) {
    static_assert(std::is_integral_v<T>);
    return static_cast<T>(to_count(key, require(key), lo, hi));
  }
  [[nodiscard]] Picos required_time(std::string_view base);

  /// Reject every key no getter asked for.
  void finish() const;

  /// Throw "<prefix>: <why>" positioned at `at` (default: the object).
  [[noreturn]] void fail(const std::string& why,
                         const Value* at = nullptr) const;

 private:
  struct Asked {
    std::string_view name;
    bool time;  ///< `name` is a base that takes the _ns/_us/_ms suffixes
  };

  [[nodiscard]] bool asked(std::string_view key) const;
  [[nodiscard]] const Value& require(std::string_view key);
  [[nodiscard]] const Value* find_time(std::string_view base, double& to_ps);
  [[noreturn]] void missing(std::string_view key, bool time) const;
  [[nodiscard]] std::uint64_t to_count(std::string_view key, const Value& v,
                                       std::uint64_t lo,
                                       std::uint64_t hi) const;
  [[nodiscard]] Picos to_time(std::string_view base, const Value& v,
                              double to_ps) const;
  [[nodiscard]] const Value& typed(std::string_view key, const Value& v,
                                   Value::Type t) const;

  const Value& obj_;
  std::string prefix_;
  std::vector<Asked> asked_;
};

}  // namespace osnt::json
