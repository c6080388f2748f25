#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/error.hpp"

namespace crowdrank::obs {

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

double JsonValue::number_at(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string JsonValue::string_at(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->string : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content after JSON value");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json offset " + std::to_string(pos_) + ": " + what);
  }

  static std::string hex_byte(char c) {
    char text[8];
    std::snprintf(text, sizeof text, "0x%02x",
                  static_cast<unsigned>(static_cast<unsigned char>(c)));
    return text;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  /// `depth`: the containers around this value.
  JsonValue parse_value(std::size_t depth) {
    skip_ws();
    JsonValue value;
    switch (peek()) {
      case '{':
      case '[':
        if (depth == kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        return peek() == '{' ? parse_object(depth + 1)
                             : parse_array(depth + 1);
      case '"':
        value.kind = JsonValue::Kind::String;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        value.kind = JsonValue::Kind::Bool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        value.kind = JsonValue::Kind::Bool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        value.kind = JsonValue::Kind::Null;
        return value;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.members.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array(std::size_t depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = peek();
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control byte " + hex_byte(c) + " in string");
      }
      ++pos_;
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      c = peek();
      ++pos_;
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The exporters only \u-escape control bytes; decode the code
          // point as a single char for that range and fail beyond it.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto [ptr, ec] = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || ptr != text_.data() + pos_ + 4) {
            fail("invalid \\u escape");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          pos_ += 4;
          break;
        }
        default:
          fail(std::string("unsupported escape '\\") + c + "'");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    JsonValue value;
    value.kind = JsonValue::Kind::Number;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_,
                        value.number);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("invalid number");
    }
    value.string.assign(text_, start, pos_ - start);
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace crowdrank::obs
