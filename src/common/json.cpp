#include "osnt/common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace osnt::json {
namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& context)
      : p_(text.data()),
        end_(text.data() + text.size()),
        begin_(text.data()),
        context_(context) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (p_ != end_) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[nodiscard]] std::pair<std::size_t, std::size_t> position_of(
      const char* at) const {
    std::size_t line = 1, col = 1;
    for (const char* c = begin_; c < at; ++c) {
      if (*c == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return {line, col};
  }

  [[noreturn]] void fail(const std::string& why) const {
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
  void stamp(Value& v) const {
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
  const char* begin_;
  const std::string& context_;
  std::size_t depth_ = 0;
};

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

}  // namespace osnt::json
