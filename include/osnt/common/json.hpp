// Strict recursive-descent JSON reader shared by every declarative input
// the simulator accepts (fault plans, topology files). Inputs are small
// hand-written documents, so this parses into a value tree and favors
// diagnostics over speed: errors carry the 1-based line/column of the
// offending byte, and callers layer their own unknown-key/unknown-type
// hard errors on top (typos must not silently no-op). No external
// dependency: the toolchain image is all we may assume.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace osnt::json
