#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/require.hpp"

namespace dmra {

// ---- accessors ------------------------------------------------------------------

bool JsonValue::as_bool() const {
  DMRA_REQUIRE_MSG(is_bool(), "JSON value is not a bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  DMRA_REQUIRE_MSG(is_number(), "JSON value is not a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  DMRA_REQUIRE_MSG(is_string(), "JSON value is not a string");
  return std::get<std::string>(value_);
}

const JsonArray& JsonValue::as_array() const {
  DMRA_REQUIRE_MSG(is_array(), "JSON value is not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& JsonValue::as_object() const {
  DMRA_REQUIRE_MSG(is_object(), "JSON value is not an object");
  return std::get<JsonObject>(value_);
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonObject& obj = as_object();
  const auto it = obj.find(key);
  DMRA_REQUIRE_MSG(it != obj.end(), "JSON object has no key '" + key + "'");
  return it->second;
}

bool JsonValue::has(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) > 0;
}

std::int64_t JsonValue::as_int() const {
  constexpr double kInt64Limit = 9223372036854775808.0;  // 2^63
  const double d = as_number();
  const double r = std::nearbyint(d);
  DMRA_REQUIRE_MSG(std::abs(d - r) < 1e-9, "JSON number is not integral");
  DMRA_REQUIRE_MSG(r >= -kInt64Limit && r < kInt64Limit, "JSON number out of int64 range");
  return static_cast<std::int64_t>(r);
}

std::uint32_t JsonValue::as_u32() const {
  const std::int64_t i = as_int();
  DMRA_REQUIRE_MSG(i >= 0 && i <= 0xffffffffLL, "JSON number out of uint32 range");
  return static_cast<std::uint32_t>(i);
}

// ---- serialization ----------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

void dump_number(std::ostringstream& os, double d) {
  DMRA_REQUIRE_MSG(std::isfinite(d), "JSON cannot represent NaN/Inf");
  if (d == std::nearbyint(d) && std::abs(d) < 1e15) {
    os << static_cast<long long>(d);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  os << buf;
}

void dump_value(std::ostringstream& os, const JsonValue& v, int indent, int depth);

void newline(std::ostringstream& os, int indent, int depth) {
  if (indent <= 0) return;
  os << '\n' << std::string(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_value(std::ostringstream& os, const JsonValue& v, int indent, int depth) {
  if (v.is_null()) {
    os << "null";
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_number()) {
    dump_number(os, v.as_number());
  } else if (v.is_string()) {
    os << '"' << json_escape(v.as_string()) << '"';
  } else if (v.is_array()) {
    const JsonArray& arr = v.as_array();
    os << '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) os << ',';
      newline(os, indent, depth + 1);
      dump_value(os, arr[i], indent, depth + 1);
    }
    if (!arr.empty()) newline(os, indent, depth);
    os << ']';
  } else {
    const JsonObject& obj = v.as_object();
    os << '{';
    std::size_t i = 0;
    for (const auto& [key, value] : obj) {
      if (i++) os << ',';
      newline(os, indent, depth + 1);
      os << '"' << json_escape(key) << "\":";
      if (indent > 0) os << ' ';
      dump_value(os, value, indent, depth + 1);
    }
    if (!obj.empty()) newline(os, indent, depth);
    os << '}';
  }
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::ostringstream os;
  dump_value(os, *this, indent, 0);
  return os.str();
}

// ---- parsing -----------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_ws();
    if (!parse_value(result.value)) {
      result.error = error_;
      result.offset = pos_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = "trailing content after JSON value";
      result.offset = pos_;
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;

  bool fail(const std::string& msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': return parse_string_value(out);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return fail("bad literal");
    pos_ += lit.size();
    return true;
  }

  bool parse_null(JsonValue& out) {
    if (!parse_literal("null")) return false;
    out = JsonValue(nullptr);
    return true;
  }

  bool parse_bool(JsonValue& out) {
    if (text_[pos_] == 't') {
      if (!parse_literal("true")) return false;
      out = JsonValue(true);
    } else {
      if (!parse_literal("false")) return false;
      out = JsonValue(false);
    }
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0') {
      pos_ = start;
      return fail("malformed number");
    }
    if (!std::isfinite(d)) {  // strtod's ERANGE overflow: "1e999" reads as inf
      pos_ = start;
      return fail("number out of range");
    }
    out = JsonValue(d);
    return true;
  }

  bool parse_string_raw(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // Encode the code point as UTF-8 (BMP only; enough for our use).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_string_value(JsonValue& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = JsonValue(std::move(s));
    return true;
  }

  bool parse_array(JsonValue& out) {
    consume('[');
    JsonArray arr;
    skip_ws();
    if (consume(']')) {
      out = JsonValue(std::move(arr));
      return true;
    }
    while (true) {
      JsonValue v;
      skip_ws();
      if (!parse_value(v)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (consume(']')) break;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
    out = JsonValue(std::move(arr));
    return true;
  }

  bool parse_object(JsonValue& out) {
    consume('{');
    JsonObject obj;
    skip_ws();
    if (consume('}')) {
      out = JsonValue(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      obj.emplace(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) break;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
    out = JsonValue(std::move(obj));
    return true;
  }
};

}  // namespace

JsonParseResult json_parse(std::string_view text) { return Parser(text).run(); }

}  // namespace dmra
