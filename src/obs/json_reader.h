// Minimal JSON reader for artifact round-trips.
//
// The obs layer's JsonWriter only *writes*; subsystems that replay their
// own artifacts (chaos fault plans, ebs scenario specs) share this
// recursive-descent reader: objects, arrays, strings (with the escapes the
// writer emits), numbers, bools. Enough for any file JsonWriter produced —
// and for hand-edited repros. Config types read through `obs::JsonIn`
// (fields.h); `json_number`/`json_string` serve the lenient external
// trace format.
#pragma once

#include <cctype>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace repro::obs {

struct JsonValue;
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;                   // kString, or a kNumber's own text
  std::vector<JsonValue> items;      // kArray
  std::unique_ptr<JsonMembers> obj;  // kObject

  const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : *obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : s_(s) {}

  bool parse(JsonValue* out) {
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  std::string error() const { return err_; }

 private:
  bool fail(const std::string& why) {
    if (err_.empty()) {
      err_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return string(&out->str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out->type = JsonValue::Type::kBool;
      out->b = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out->type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return number(out);
  }

  bool object(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    out->obj = std::make_unique<JsonMembers>();
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      JsonValue v;
      if (!value(&v)) return false;
      out->obj->emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!value(&v)) return false;
      out->items.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u':
            // The writer only emits \u00XX for control bytes.
            if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
            out->push_back(static_cast<char>(
                std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16)));
            pos_ += 4;
            break;
          default: return fail("unknown escape");
        }
        continue;
      }
      out->push_back(c);
    }
    return fail("unterminated string");
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    out->type = JsonValue::Type::kNumber;
    out->str = s_.substr(start, pos_ - start);
    out->num = std::strtod(out->str.c_str(), nullptr);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string err_;
};

/// Fetches `obj[key]` as a number; false if absent or not numeric.
inline bool json_number(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return false;
  *out = v->num;
  return true;
}

/// Fetches `obj[key]` as a string; false if absent or not a string.
inline bool json_string(const JsonValue& obj, const char* key,
                        std::string* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kString) return false;
  *out = v->str;
  return true;
}

}  // namespace repro::obs
