#include "src/util/json_parse.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace deepplan {

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

JsonValue JsonValue::Bool(bool v) {
  JsonValue j(Kind::kBool);
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::Number(double v) {
  JsonValue j(Kind::kNumber);
  j.number_ = v;
  return j;
}

JsonValue JsonValue::String(std::string v) {
  JsonValue j(Kind::kString);
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue j(Kind::kArray);
  j.items_ = std::move(items);
  return j;
}

JsonValue JsonValue::Object(
    std::vector<std::pair<std::string, JsonValue>> fields) {
  JsonValue j(Kind::kObject);
  j.fields_ = std::move(fields);
  return j;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonParseResult Parse() {
    JsonParseResult result;
    JsonValue value = JsonValue::Null();
    if (!ParseValue(&value)) {
      result.error = error_;
      return result;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      result.error = "trailing garbage at byte " + std::to_string(pos_);
      return result;
    }
    result.ok = true;
    result.value = std::move(value);
    return result;
  }

 private:
  bool Err(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) {
      return Err("expected string");
    }
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return Err("truncated escape");
        }
        const char e = text_[pos_];
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) {
              return Err("truncated \\u escape");
            }
            for (int i = 1; i <= 4; ++i) {
              if (std::isxdigit(
                      static_cast<unsigned char>(text_[pos_ + static_cast<std::size_t>(i)])) == 0) {
                return Err("bad \\u escape");
              }
            }
            // Preserved verbatim; lossless for validation.
            s += "\\u";
            s.append(text_, pos_ + 1, 4);
            pos_ += 4;
            break;
          }
          default:
            return Err("bad escape");
        }
        ++pos_;
      } else {
        s += c;
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) {
      return Err("unterminated string");
    }
    ++pos_;  // closing quote
    *out = std::move(s);
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Err("expected value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return Err("bad number \"" + token + "\"");
    }
    *out = JsonValue::Number(v);
    return true;
  }

  // After the opening '{'.
  bool ParseObject(JsonValue* out) {
    std::vector<std::pair<std::string, JsonValue>> fields;
    if (Eat('}')) {
      *out = JsonValue::Object(std::move(fields));
      return true;
    }
    do {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      if (!Eat(':')) {
        return Err("expected ':' after object key");
      }
      JsonValue value = JsonValue::Null();
      if (!ParseValue(&value)) {
        return false;
      }
      fields.emplace_back(std::move(key), std::move(value));
    } while (Eat(','));
    if (!Eat('}')) {
      return Err("expected '}' or ','");
    }
    *out = JsonValue::Object(std::move(fields));
    return true;
  }

  // After the opening '['.
  bool ParseArray(JsonValue* out) {
    std::vector<JsonValue> items;
    if (Eat(']')) {
      *out = JsonValue::Array(std::move(items));
      return true;
    }
    do {
      JsonValue value = JsonValue::Null();
      if (!ParseValue(&value)) {
        return false;
      }
      items.push_back(std::move(value));
    } while (Eat(','));
    if (!Eat(']')) {
      return Err("expected ']' or ','");
    }
    *out = JsonValue::Array(std::move(items));
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Err("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Each level recurses once, so a bound on the depth is a bound on the
      // stack: a deeper document is refused, never a crash.
      if (depth_ == kMaxJsonDepth) {
        return Err("arrays and objects nested deeper than " +
                   std::to_string(kMaxJsonDepth) + " levels");
      }
      ++pos_;
      ++depth_;
      const bool ok = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) {
        return false;
      }
      *out = JsonValue::String(std::move(s));
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      *out = JsonValue::Bool(true);
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      *out = JsonValue::Bool(false);
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      *out = JsonValue::Null();
      return true;
    }
    return ParseNumber(out);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open around pos_
  std::string error_;
};

}  // namespace

JsonParseResult ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace deepplan
