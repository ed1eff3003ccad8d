#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ifko {

std::optional<int64_t> JsonValue::intValue() const {
  // [-2^63, 2^63): both bounds are exact doubles.
  if (kind != Kind::Number || std::trunc(number) != number ||
      number < -0x1p63 || number >= 0x1p63)
    return std::nullopt;  // NaN fails the trunc comparison
  return static_cast<int64_t>(number);
}

std::optional<uint64_t> JsonValue::uintValue() const {
  if (kind != Kind::Number || std::trunc(number) != number || number < 0 ||
      number >= 0x1p64)
    return std::nullopt;
  return static_cast<uint64_t>(number);
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonWriter& JsonWriter::raw(std::string_view key, std::string rendered) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += jsonEscape(key);
  body_ += "\":";
  body_ += rendered;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  return raw(key, '"' + jsonEscape(value) + '"');
}
JsonWriter& JsonWriter::field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}
JsonWriter& JsonWriter::field(std::string_view key, const std::string& value) {
  return field(key, std::string_view(value));
}
JsonWriter& JsonWriter::field(std::string_view key, int64_t value) {
  return raw(key, std::to_string(value));
}
JsonWriter& JsonWriter::field(std::string_view key, uint64_t value) {
  return raw(key, std::to_string(value));
}
JsonWriter& JsonWriter::field(std::string_view key, int value) {
  return raw(key, std::to_string(value));
}
JsonWriter& JsonWriter::field(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return raw(key, buf);
}
JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}
JsonWriter& JsonWriter::field(std::string_view key, const JsonWriter& nested) {
  return raw(key, nested.str());
}

std::string JsonWriter::str() const { return "{" + body_ + "}"; }

namespace {

/// Cursor over one line; every helper skips leading whitespace itself.
struct Parser {
  std::string_view s;
  size_t pos = 0;
  std::string error;

  void skipWs() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
      ++pos;
  }

  bool fail(const std::string& msg) {
    error = msg + " at offset " + std::to_string(pos);
    return false;
  }

  bool expect(char c) {
    skipWs();
    if (pos >= s.size() || s[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool peekIs(char c) {
    skipWs();
    return pos < s.size() && s[pos] == c;
  }

  bool parseString(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos >= s.size()) return fail("dangling escape");
      char e = s[pos++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos + 4 > s.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // The writer only emits \u for control characters; decode the
          // ASCII range and reject anything that would need UTF-8 encoding.
          if (code > 0x7f) return fail("non-ASCII \\u escape unsupported");
          *out += static_cast<char>(code);
          break;
        }
        default: return fail("unknown escape");
      }
    }
    if (pos >= s.size()) return fail("unterminated string");
    ++pos;  // closing quote
    return true;
  }

  bool parseObject(std::map<std::string, JsonValue>* out, int depth);

  bool parseValue(JsonValue* out, int depth) {
    skipWs();
    if (pos >= s.size()) return fail("missing value");
    char c = s[pos];
    if (c == '"') {
      out->kind = JsonValue::Kind::String;
      return parseString(&out->string);
    }
    if (c == '{') {
      // Shallow nesting only: grouped counters, not general documents.
      if (depth >= 4) return fail("object nested too deep");
      out->kind = JsonValue::Kind::Object;
      out->object = std::make_shared<std::map<std::string, JsonValue>>();
      return parseObject(out->object.get(), depth + 1);
    }
    if (c == '[') return fail("arrays unsupported");
    if (s.compare(pos, 4, "true") == 0) {
      out->kind = JsonValue::Kind::Bool;
      out->boolean = true;
      pos += 4;
      return true;
    }
    if (s.compare(pos, 5, "false") == 0) {
      out->kind = JsonValue::Kind::Bool;
      out->boolean = false;
      pos += 5;
      return true;
    }
    if (s.compare(pos, 4, "null") == 0) {
      out->kind = JsonValue::Kind::Null;
      pos += 4;
      return true;
    }
    size_t end = pos;
    while (end < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[end])) || s[end] == '-' ||
            s[end] == '+' || s[end] == '.' || s[end] == 'e' || s[end] == 'E'))
      ++end;
    if (end == pos) return fail("bad value");
    std::string num(s.substr(pos, end - pos));
    char* endp = nullptr;
    double v = std::strtod(num.c_str(), &endp);
    if (endp != num.c_str() + num.size()) return fail("bad number");
    out->kind = JsonValue::Kind::Number;
    out->number = v;
    pos = end;
    return true;
  }
};

bool Parser::parseObject(std::map<std::string, JsonValue>* out, int depth) {
  if (!expect('{')) return false;
  if (!peekIs('}')) {
    for (;;) {
      std::string key;
      if (!parseString(&key)) return false;
      if (!expect(':')) return false;
      JsonValue v;
      if (!parseValue(&v, depth)) return false;
      (*out)[key] = std::move(v);
      if (peekIs(',')) {
        ++pos;
        continue;
      }
      break;
    }
  }
  return expect('}');
}

}  // namespace

bool parseJsonObject(std::string_view line,
                     std::map<std::string, JsonValue>* out,
                     std::string* error) {
  out->clear();
  Parser p{line};
  auto bail = [&] {
    if (error != nullptr) *error = p.error;
    return false;
  };
  if (!p.parseObject(out, 0)) return bail();
  p.skipWs();
  if (p.pos != line.size()) {
    p.fail("trailing garbage");
    return bail();
  }
  return true;
}

}  // namespace ifko
