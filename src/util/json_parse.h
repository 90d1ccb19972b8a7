// Minimal JSON document parser (the read-side companion of json.h's
// builders): parses a full document into an owned DOM for tools that consume
// emitted artifacts — trace_lint re-validating Chrome traces, tests reading
// BENCH_*.json. Strict where it matters (structure, escapes, numbers via
// strtod) and small where it does not (no \uXXXX decoding — escaped unicode
// is preserved verbatim, which is lossless for validation purposes).
#ifndef SRC_UTIL_JSON_PARSE_H_
#define SRC_UTIL_JSON_PARSE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace deepplan {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  // Insertion-ordered key/value pairs (duplicate keys are preserved).
  const std::vector<std::pair<std::string, JsonValue>>& fields() const {
    return fields_;
  }

  // First field with `key`, or nullptr.
  const JsonValue* Find(const std::string& key) const;

  static JsonValue Null() { return JsonValue(Kind::kNull); }
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
  static JsonValue String(std::string v);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> fields);

 private:
  explicit JsonValue(Kind kind) : kind_(kind) {}

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

struct JsonParseResult {
  bool ok = false;
  std::string error;       // human-readable, includes byte offset
  JsonValue value = JsonValue::Null();
};

// Deepest nesting of arrays and objects ParseJson accepts: far above any
// document this repo writes, and far below what overflows the parser's stack.
inline constexpr int kMaxJsonDepth = 1000;

// Parses `text` as one JSON document (trailing whitespace allowed, trailing
// garbage is an error, and so is nesting deeper than kMaxJsonDepth).
JsonParseResult ParseJson(const std::string& text);

}  // namespace deepplan

#endif  // SRC_UTIL_JSON_PARSE_H_
