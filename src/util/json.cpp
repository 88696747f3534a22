#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

namespace metaprep::util {

namespace {

[[noreturn]] void kind_mismatch(const char* wanted) {
  throw parse_error(std::string("json: value is not a ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_mismatch("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_mismatch("number");
  return num_;
}

std::uint64_t JsonValue::as_uint() const {
  const double v = as_number();
  // 2^64 is exact as a double; casting it or anything above is undefined.
  if (!(v >= 0.0 && v < 18446744073709551616.0) || std::floor(v) != v)
    kind_mismatch("u64");
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_mismatch("string");
  return str_;
}

const JsonArray& JsonValue::as_array() const {
  if (kind_ != Kind::kArray || !arr_) kind_mismatch("array");
  return *arr_;
}

const JsonObject& JsonValue::as_object() const {
  if (kind_ != Kind::kObject || !obj_) kind_mismatch("object");
  return *obj_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonObject& o = as_object();
  auto it = o.find(key);
  if (it == o.end()) throw parse_error("json: missing key \"" + key + "\"");
  return it->second;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject || !obj_) return nullptr;
  auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind() == Kind::kNumber ? v->num_ : fallback;
}

std::string JsonValue::string_or(const std::string& key, std::string fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind() == Kind::kString ? v->str_ : std::move(fallback);
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw parse_error(std::string("json: ") + what, {}, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > 64) fail("nesting deeper than 64");  // see json.hpp
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.str_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    v.obj_ = std::make_shared<JsonObject>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      (*v.obj_)[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    v.arr_ = std::make_shared<JsonArray>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_->push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The exporters only emit \u00XX control escapes; decode the BMP
          // code point as UTF-8 without surrogate-pair handling.
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    // strtod needs a terminated buffer; numbers are short.
    char buf[64];
    const std::size_t len = pos_ - start;
    if (len >= sizeof(buf)) fail("number too long");
    std::memcpy(buf, text_.data() + start, len);
    buf[len] = '\0';
    char* end = nullptr;
    const double d = std::strtod(buf, &end);
    if (end != buf + len) fail("malformed number");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.num_ = d;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse_document(); }

std::vector<JsonValue> parse_jsonl(std::string_view text) {
  std::vector<JsonValue> out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    ++line_no;
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    // Skip blank lines (and a possible trailing one).
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    try {
      out.push_back(parse_json(line));
    } catch (const Error& e) {
      throw parse_error("jsonl line " + std::to_string(line_no) + ": " + e.detail());
    }
  }
  return out;
}

namespace {

std::string read_whole_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw io_error("json: cannot open", path);
  std::string data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw io_error("json: read failed", path);
  return data;
}

}  // namespace

JsonValue parse_json_file(const std::string& path) {
  try {
    return parse_json(read_whole_file(path));
  } catch (const Error& e) {
    throw parse_error(path + ": " + e.detail(), path);
  }
}

std::vector<JsonValue> parse_jsonl_file(const std::string& path) {
  try {
    return parse_jsonl(read_whole_file(path));
  } catch (const Error& e) {
    throw parse_error(path + ": " + e.detail(), path);
  }
}

}  // namespace metaprep::util
