#include "atlc/util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace atlc::util {

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object)
    throw std::logic_error("Json: operator[] on a non-object value");
  for (auto& [k, v] : members_)
    if (k == key) return v;
  members_.emplace_back(key, Json());
  return members_.back().second;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

void Json::push_back(Json v) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array)
    throw std::logic_error("Json: push_back on a non-array value");
  elems_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return elems_.size();
  if (type_ == Type::Object) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const { return elems_.at(i); }

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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; emit null like most emitters
    out += "null";
    return;
  }
  // Integral values within the exact-double range print without a fraction
  // so counters stay grep-able; everything else round-trips via %.17g.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(indent > 0 ? indent * (depth + 1) : 0, ' ');
  const std::string close_pad(indent > 0 ? indent * depth : 0, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: append_number(out, num_); break;
    case Type::String:
      out += '"';
      out += json_escape(str_);
      out += '"';
      break;
    case Type::Array: {
      if (elems_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < elems_.size(); ++i) {
        out += pad;
        elems_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < elems_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Type::Object: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += pad;
        out += '"';
        out += json_escape(members_[i].first);
        out += indent > 0 ? "\": " : "\":";
        members_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }

  bool fail(const std::string& msg) {
    if (error.empty())
      error = msg + " at offset " + std::to_string(pos);
    return false;
  }

  bool expect(char c) {
    if (at_end() || text[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool literal(std::string_view word, Json value, Json& out) {
    if (text.substr(pos, word.size()) != word)
      return fail("invalid literal");
    pos += word.size();
    out = std::move(value);
    return true;
  }

  static void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool hex4(std::uint32_t& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) return fail("truncated escape");
      c = text[pos++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
            if (text.substr(pos, 2) != "\\u")
              return fail("unpaired high surrogate");
            pos += 2;
            std::uint32_t lo = 0;
            if (!hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF)
              return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("unknown escape");
      }
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos;
    if (!at_end() && peek() == '-') ++pos;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-'))
      ++pos;
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty())
      return fail("invalid number");
    out = Json(v);
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > 200) return fail("nesting too deep");
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case 't': return literal("true", Json(true), out);
      case 'f': return literal("false", Json(false), out);
      case 'n': return literal("null", Json(nullptr), out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++pos;
        out = Json::array();
        skip_ws();
        if (!at_end() && peek() == ']') {
          ++pos;
          return true;
        }
        while (true) {
          Json elem;
          if (!parse_value(elem, depth + 1)) return false;
          out.push_back(std::move(elem));
          skip_ws();
          if (at_end()) return fail("unterminated array");
          if (peek() == ',') {
            ++pos;
            continue;
          }
          return expect(']');
        }
      }
      case '{': {
        ++pos;
        out = Json::object();
        skip_ws();
        if (!at_end() && peek() == '}') {
          ++pos;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!expect(':')) return false;
          Json value;
          if (!parse_value(value, depth + 1)) return false;
          out[key] = std::move(value);
          skip_ws();
          if (at_end()) return fail("unterminated object");
          if (peek() == ',') {
            ++pos;
            continue;
          }
          return expect('}');
        }
      }
      default: return parse_number(out);
    }
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  Json out;
  if (!p.parse_value(out, 0)) {
    if (error) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.at_end()) {
    if (error) *error = "trailing characters at offset " + std::to_string(p.pos);
    return std::nullopt;
  }
  return out;
}

bool write_json_file(const std::string& path, const Json& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string text = doc.dump(2);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace atlc::util
