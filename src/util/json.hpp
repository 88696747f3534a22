// Minimal JSON reader for the offline tooling (metaprep-report).
//
// The pipeline's exporters (attr.json, metrics JSONL, the Chrome trace, the
// comm-matrix dump) emit a small, known subset of JSON; this parser reads
// exactly that subset back — objects, arrays, strings with the escapes the
// exporters produce, numbers, booleans, null — into a simple tree.  metaprepd
// also parses client request lines with it, so nesting is capped at 64
// levels.  Malformed input throws util::parse_error naming the byte offset.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace metaprep::util {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

/// One node of the parsed tree.  Accessors throw util::parse_error on kind
/// mismatch so tool code can chain them and surface one typed failure.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// as_number when it is an integer in [0, 2^64); otherwise a parse error.
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member lookup; throws if not an object or the key is missing.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  /// Object member lookup; returns nullptr if absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  // Tool-side conveniences with defaults for optional fields.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key, std::string fallback) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Indirect so JsonValue stays movable without recursive type issues.
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Parse one JSON document (leading/trailing whitespace allowed; trailing
/// garbage throws).
JsonValue parse_json(std::string_view text);

/// Parse every non-empty line as one JSON document (the metrics JSONL
/// format).  A malformed line throws with its line number.
std::vector<JsonValue> parse_jsonl(std::string_view text);

/// Read @p path and parse_json its contents.
JsonValue parse_json_file(const std::string& path);

/// Read @p path and parse_jsonl its contents.
std::vector<JsonValue> parse_jsonl_file(const std::string& path);

}  // namespace metaprep::util
