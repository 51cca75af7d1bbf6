#include "osnt/common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "osnt/common/cli.hpp"

namespace osnt::json {
namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& context)
      : p_(text.data()),
        end_(text.data() + text.size()),
        scanned_(text.data()),
        line_begin_(text.data()),
        context_(context) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (p_ != end_) fail("trailing content after JSON value");
    return v;
  }

 private:
  /// 1-based line/column of `at`. Callers ask in non-decreasing order
  /// (stamps as the parse advances, then at most one failure at the
  /// cursor), so the scan resumes where the previous call stopped and a
  /// whole parse counts lines in one pass.
  [[nodiscard]] std::pair<std::size_t, std::size_t> position_of(
      const char* at) {
    for (; scanned_ < at; ++scanned_) {
      if (*scanned_ == '\n') {
        ++line_;
        line_begin_ = scanned_ + 1;
      }
    }
    return {line_, static_cast<std::size_t>(at - line_begin_) + 1};
  }

  [[noreturn]] void fail(const std::string& why) {
    const auto [line, col] = position_of(p_);
    throw ParseError(context_ + ": " + why + " (line " + std::to_string(line) +
                         " column " + std::to_string(col) + ")",
                     line, col);
  }

  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  /// Stamp the source position of the value that starts at `p_`.
  void stamp(Value& v) {
    const auto [line, col] = position_of(p_);
    v.line = line;
    v.column = col;
  }

  Value value() {
    skip_ws();
    if (p_ == end_) fail("unexpected end of input");
    switch (*p_) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        Value v = *p_ == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        stamp(v);
        v.type = Value::Type::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f':
        return boolean();
      case 'n': {
        Value v;
        stamp(v);
        literal("null");
        return v;
      }
      default:
        return number();
    }
  }

  void literal(const char* lit) {
    for (const char* c = lit; *c; ++c) {
      if (p_ == end_ || *p_ != *c) {
        fail(std::string("bad literal, expected ") + lit);
      }
      ++p_;
    }
  }

  Value boolean() {
    Value v;
    stamp(v);
    v.type = Value::Type::kBool;
    if (*p_ == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  Value number() {
    Value v;
    stamp(v);
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    if (p_ == start) fail("expected a value");
    char* parsed_end = nullptr;
    const std::string token(start, p_);
    const double d = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end != token.c_str() + token.size() || !std::isfinite(d)) {
      fail("malformed number '" + token + "'");
    }
    v.type = Value::Type::kNumber;
    v.number = d;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ == end_) fail("unterminated escape");
      switch (*p_++) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("unknown escape");
      }
    }
    expect('"');
    return out;
  }

  Value object() {
    Value v;
    stamp(v);
    expect('{');
    v.type = Value::Type::kObject;
    skip_ws();
    if (eat('}')) return v;
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (eat(',')) continue;
      expect('}');
      return v;
    }
  }

  Value array() {
    Value v;
    stamp(v);
    expect('[');
    v.type = Value::Type::kArray;
    skip_ws();
    if (eat(']')) return v;
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (eat(',')) continue;
      expect(']');
      return v;
    }
  }

  const char* p_;
  const char* end_;
  const char* scanned_;     ///< position_of() has counted lines up to here
  const char* line_begin_;  ///< first byte of the line holding `scanned_`
  std::size_t line_ = 1;
  const std::string& context_;
  std::size_t depth_ = 0;
};

const char* type_name(Value::Type t) {
  constexpr const char* kNames[] = {"null",   "bool",  "number",
                                    "string", "array", "object"};
  return kNames[static_cast<std::size_t>(t)];
}

std::string quoted(std::string_view key) {
  return std::string("'").append(key).append("'");
}

/// Picoseconds per unit when `key` is `base` plus a time-unit suffix,
/// else 0.
double unit_scale(std::string_view base, std::string_view key) {
  if (key.size() != base.size() + 3 || !key.starts_with(base)) return 0.0;
  const std::string_view unit = key.substr(base.size());
  return unit == "_ns" ? 1e3 : unit == "_us" ? 1e6 : unit == "_ms" ? 1e9 : 0.0;
}

/// The key names a read accepts: `name`, or its three time spellings.
std::vector<std::string> spellings(std::string_view name, bool time) {
  if (!time) return {std::string(name)};
  std::vector<std::string> out;
  for (const char* unit : {"_ns", "_us", "_ms"}) {
    out.push_back(std::string(name).append(unit));
  }
  return out;
}

}  // namespace

std::string Value::where() const {
  return "line " + std::to_string(line) + " column " + std::to_string(column);
}

Value parse(const std::string& text, const std::string& context) {
  return Parser(text, context).parse();
}

std::string read_file(const std::string& path, const std::string& context) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw ParseError(context + ": cannot open '" + path + "'", 0, 0);
  std::string text;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, got);
  }
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) {
    throw ParseError(context + ": read error on '" + path + "'", 0, 0);
  }
  return text;
}

// ---------------------------------------------------------------------------
// ObjectReader
// ---------------------------------------------------------------------------

ObjectReader::ObjectReader(const Value& obj, std::string prefix)
    : obj_(obj), prefix_(std::move(prefix)) {
  if (!obj.is(Value::Type::kObject)) {
    fail(std::string("expected an object, got ") + type_name(obj.type));
  }
  asked_.reserve(16);  // one allocation per object, none per key
}

const Value* ObjectReader::find(std::string_view key) {
  asked_.push_back({key, false});
  const Value* found = nullptr;
  for (const auto& [k, v] : obj_.object) {
    if (k != key) continue;
    if (found) fail("duplicate key " + quoted(key), &v);
    found = &v;
  }
  return found;
}

const Value* ObjectReader::find(std::string_view key, Value::Type t) {
  const Value* v = find(key);
  return v ? &typed(key, *v, t) : nullptr;
}

double ObjectReader::number(std::string_view key, double fallback) {
  const Value* v = find(key, Value::Type::kNumber);
  return v ? v->number : fallback;
}

bool ObjectReader::boolean(std::string_view key, bool fallback) {
  const Value* v = find(key, Value::Type::kBool);
  return v ? v->boolean : fallback;
}

std::string ObjectReader::string(std::string_view key, std::string fallback) {
  const Value* v = find(key, Value::Type::kString);
  return v ? v->string : fallback;
}

Picos ObjectReader::time(std::string_view base, Picos fallback) {
  double to_ps = 0.0;
  const Value* v = find_time(base, to_ps);
  return v ? to_time(base, *v, to_ps) : fallback;
}

const Value& ObjectReader::required(std::string_view key, Value::Type t) {
  return typed(key, require(key), t);
}

double ObjectReader::required_number(std::string_view key) {
  return required(key, Value::Type::kNumber).number;
}

const std::string& ObjectReader::required_string(std::string_view key) {
  return required(key, Value::Type::kString).string;
}

Picos ObjectReader::required_time(std::string_view base) {
  double to_ps = 0.0;
  const Value* v = find_time(base, to_ps);
  if (!v) missing(base, /*time=*/true);
  return to_time(base, *v, to_ps);
}

void ObjectReader::finish() const {
  for (const auto& [k, v] : obj_.object) {
    if (asked(k)) continue;
    std::vector<std::string> names;
    for (const Asked& a : asked_) {
      for (std::string& n : spellings(a.name, a.time)) {
        names.push_back(std::move(n));
      }
    }
    fail("unknown key '" + k + "'" + did_you_mean(k, names), &v);
  }
}

void ObjectReader::fail(const std::string& why, const Value* at) const {
  if (!at) at = &obj_;
  throw ParseError(prefix_ + ": " + why + " (" + at->where() + ")", at->line,
                   at->column);
}

bool ObjectReader::asked(std::string_view key) const {
  for (const Asked& a : asked_) {
    if (a.time ? unit_scale(a.name, key) != 0.0 : a.name == key) return true;
  }
  return false;
}

const Value& ObjectReader::require(std::string_view key) {
  const Value* v = find(key);
  if (!v) missing(key, /*time=*/false);
  return *v;
}

const Value* ObjectReader::find_time(std::string_view base, double& to_ps) {
  asked_.push_back({base, true});
  const Value* found = nullptr;
  for (const auto& [k, v] : obj_.object) {
    const double scale = unit_scale(base, k);
    if (scale == 0.0) continue;
    if (found) {
      fail(scale == to_ps ? "duplicate key " + quoted(k)
                          : quoted(base) + " given in more than one unit",
           &v);
    }
    found = &v;
    to_ps = scale;
  }
  return found;
}

void ObjectReader::missing(std::string_view key, bool time) const {
  const std::vector<std::string> wanted = spellings(key, time);
  // A required key that is absent is most often misspelled: name the
  // typo, which carries a position, rather than the absence.
  for (const auto& [k, v] : obj_.object) {
    if (!asked(k) && !suggest_nearest(k, wanted).empty()) {
      fail("unknown key '" + k + "'" + did_you_mean(k, wanted), &v);
    }
  }
  fail("missing required key " + quoted(key) +
       (time ? " (as " + wanted[0] + ", " + wanted[1] + " or " + wanted[2] + ")"
             : std::string()));
}

std::uint64_t ObjectReader::to_count(std::string_view key, const Value& v,
                                     std::uint64_t lo,
                                     std::uint64_t hi) const {
  const double d = typed(key, v, Value::Type::kNumber).number;
  if (d < 0 || d != std::floor(d)) {
    fail(quoted(key) + " must be a non-negative integer", &v);
  }
  const bool fits = d < 0x1p64;
  const std::uint64_t n = fits ? static_cast<std::uint64_t>(d) : 0;
  if (!fits || n < lo || n > hi) {
    if (lo == 0 && hi == std::numeric_limits<std::uint64_t>::max()) {
      fail(quoted(key) + " must be a non-negative integer below 2^64", &v);
    }
    fail(quoted(key) + " must be in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]",
         &v);
  }
  return n;
}

Picos ObjectReader::to_time(std::string_view base, const Value& v,
                            double to_ps) const {
  const double ps = typed(base, v, Value::Type::kNumber).number * to_ps;
  if (ps < 0 || ps > 9.2e18) fail(quoted(base) + " out of range", &v);
  return static_cast<Picos>(ps);
}

const Value& ObjectReader::typed(std::string_view key, const Value& v,
                                 Value::Type t) const {
  if (!v.is(t)) {
    fail(quoted(key) + " must be a " + type_name(t) + ", got " +
             type_name(v.type),
         &v);
  }
  return v;
}

}  // namespace osnt::json
