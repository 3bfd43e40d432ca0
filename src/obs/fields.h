// One field list per JSON config type.
//
// A config struct describes its JSON shape once, in a `fields(v, x)`
// function template next to the struct:
//
//   template <class V>
//   void fields(V& v, Knobs& k) {
//     v.field("depth", k.depth);
//     v.micros("timeout_us", k.timeout);
//     ...
//   }
//
// and the two visitors below derive everything else from that list:
// `JsonOut` writes it (key order = call order), `JsonIn` reads it
// type-exactly and refuses keys the list does not name. The calls:
//
//   field(key, x[, parse])           always written; read when present
//   field_if(emit, key, x[, parse])  written only when `emit`
//   required(key, x[, parse])        as `field`, but absent is an error
//   optional(key, x, has)            written iff `has`; present sets `has`
//   micros(key, ns)                  a TimeNs written as double microseconds
//   object(key, fn)                  a nested object of the same struct
//   check(ok, why)                   a read is refused unless `ok`
//   check(key, ok, why)              the same, naming `key`'s path
//
// `parse` is an enum's `bool(const std::string&, E*)` name parser; the
// writer finds its `to_string` by argument-dependent lookup.
#pragma once

#include <charconv>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/json.h"
#include "obs/json_reader.h"

namespace repro::obs {

template <class T>
struct IsVector : std::false_type {};
template <class T, class A>
struct IsVector<std::vector<T, A>> : std::true_type {};

class JsonOut {
 public:
  explicit JsonOut(JsonWriter& w) : w_(w) {}

  template <class T, class... Parse>
  void field(std::string_view key, const T& x, Parse...) {
    w_.key(key);
    put(x);
  }
  template <class T, class... Parse>
  void field_if(bool emit, std::string_view key, const T& x, Parse...) {
    if (emit) field(key, x);
  }
  template <class T, class... Parse>
  void required(std::string_view key, const T& x, Parse...) {
    field(key, x);
  }
  template <class T>
  void optional(std::string_view key, const T& x, bool has) {
    if (has) field(key, x);
  }
  void micros(std::string_view key, TimeNs x) {
    w_.key(key);
    w_.value(static_cast<double>(x) / 1e3);
  }
  template <class Fn>
  void object(std::string_view key, Fn fn) {
    w_.key(key);
    w_.begin_object();
    fn(*this);
    w_.end_object();
  }
  void check(bool, const char*) {}
  void check(std::string_view, bool, const char*) {}

  template <class T>
  void put(const T& x) {
    if constexpr (std::is_enum_v<T>) {
      w_.value(to_string(x));
    } else if constexpr (IsVector<T>::value) {
      w_.begin_array();
      for (const auto& item : x) put(item);
      w_.end_array();
    } else if constexpr (std::is_class_v<T> &&
                         !std::is_same_v<T, std::string>) {
      w_.begin_object();
      // `fields` takes the struct by non-const reference so one list
      // serves both visitors; the writer only ever reads through it.
      fields(*this, const_cast<T&>(x));
      w_.end_object();
    } else {
      w_.value(x);
    }
  }

 private:
  JsonWriter& w_;
};

class JsonIn {
 public:
  /// Reads the members of object `obj`, found at key path `path`.
  JsonIn(const JsonValue& obj, std::string path)
      : obj_(&obj), path_(std::move(path)) {}
  /// A reader of no object, for `get` on a document's top-level value.
  JsonIn() = default;

  template <class T, class... Parse>
  void field(std::string_view key, T& x, Parse... parse) {
    if (const JsonValue* j = find(key)) get(*j, x, at(key), parse...);
  }
  template <class T, class... Parse>
  void field_if(bool, std::string_view key, T& x, Parse... parse) {
    field(key, x, parse...);
  }
  template <class T, class... Parse>
  void required(std::string_view key, T& x, Parse... parse) {
    if (const JsonValue* j = find(key)) {
      get(*j, x, at(key), parse...);
    } else {
      fail(at(key), "is required");
    }
  }
  template <class T>
  void optional(std::string_view key, T& x, bool& has) {
    if (const JsonValue* j = find(key)) {
      get(*j, x, at(key));
      has = true;
    }
  }
  void micros(std::string_view key, TimeNs& x) {
    double us = 0.0;
    if (const JsonValue* j = find(key); j != nullptr && get(*j, us, at(key))) {
      x = static_cast<TimeNs>(us * 1e3);
    }
  }
  template <class Fn>
  void object(std::string_view key, Fn fn) {
    if (const JsonValue* j = find(key)) read_object(*j, at(key), fn);
  }
  void check(bool ok, const char* why) {
    if (!ok) fail(path_, why);
  }
  void check(std::string_view key, bool ok, const char* why) {
    if (!ok) fail(at(key), why);
  }

  /// Reads `*j` into `x`; false (with `error()` set) when it does not fit.
  template <class T, class... Parse>
  bool get(const JsonValue& j, T& x, const std::string& path,
           Parse... parse) {
    using JT = JsonValue::Type;
    if constexpr (std::is_same_v<T, bool>) {
      if (j.type != JT::kBool) return fail(path, "must be true or false");
      x = j.b;
    } else if constexpr (std::is_integral_v<T>) {
      // From the number's own text: no double in between, so 64-bit seeds
      // keep every bit, and a fraction or exponent is refused, not cut.
      const char* end = j.str.data() + j.str.size();
      T v{};
      const auto r = std::from_chars(j.str.data(), end, v);
      if (j.type != JT::kNumber || r.ec != std::errc() || r.ptr != end) {
        return fail(path, integer_rule<T>());
      }
      x = v;
    } else if constexpr (std::is_floating_point_v<T>) {
      if (j.type != JT::kNumber) return fail(path, "must be a number");
      x = j.num;
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (j.type != JT::kString) return fail(path, "must be a string");
      x = j.str;
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof...(Parse) == 1, "an enum field needs its parser");
      if (j.type != JT::kString) return fail(path, "must be a string");
      if (!(parse(j.str, &x) && ...)) {
        return fail(path, "unknown value \"" + j.str + "\"");
      }
    } else if constexpr (IsVector<T>::value) {
      if (j.type != JT::kArray) return fail(path, "must be an array");
      T items(j.items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (!get(j.items[i], items[i], path + "[" + std::to_string(i) + "]",
                 parse...)) {
          return false;
        }
      }
      x = std::move(items);
    } else {
      return read_object(j, path, [&x](JsonIn& in) { fields(in, x); });
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  /// After the field list ran: refuses a key it did not name (a typo must
  /// not run the default) or a key given twice (which one counts would be
  /// a guess). Either replaces a value error found first: it is the likelier
  /// cause.
  void finish() {
    const JsonMembers& members = *obj_->obj;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::string& key = members[i].first;
      bool named = false;
      for (std::string_view k : named_) named = named || k == key;
      if (!named) {
        error_ = at(key) + ": unrecognized field";
        return;
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (members[j].first == key) {
          error_ = at(key) + ": duplicate key";
          return;
        }
      }
    }
  }

  template <class T>
  static std::string integer_rule() {
    if constexpr (std::is_signed_v<T>) {
      return "must be an integer in [" +
             std::to_string(std::numeric_limits<T>::min()) + ", " +
             std::to_string(std::numeric_limits<T>::max()) + "]";
    } else {
      return "must be a non-negative integer no larger than " +
             std::to_string(std::numeric_limits<T>::max());
    }
  }

  const JsonValue* find(std::string_view key) {
    named_.push_back(key);
    for (const auto& [k, v] : *obj_->obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  std::string at(std::string_view key) const {
    return path_ + "." + std::string(key);
  }

  bool fail(const std::string& path, const std::string& why) {
    if (error_.empty()) error_ = path + ": " + why;
    return false;
  }

  template <class Fn>
  bool read_object(const JsonValue& j, const std::string& path, Fn fn) {
    if (j.type != JsonValue::Type::kObject) {
      return fail(path, "must be an object");
    }
    JsonIn in(j, path);
    fn(in);
    in.finish();
    if (in.error_.empty()) return true;
    if (error_.empty()) error_ = in.error_;
    return false;
  }

  const JsonValue* obj_ = nullptr;
  std::string path_;
  std::vector<std::string_view> named_;
  std::string error_;
};

/// `x` as one JSON object, doubles written with enough digits to parse
/// back to the same bits (specs and fault plans are replayable repros).
template <class T>
std::string to_json(const T& x) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  JsonWriter w(os);
  JsonOut(w).put(x);
  return os.str();
}

/// Parses `text` as the JSON object of a `T`, starting from `T{}` (absent
/// keys keep their defaults). On failure `*out` is untouched and `*error`
/// names the offending key path, rooted at `root` (e.g. "scenario.ec.k").
template <class T>
bool from_json(const std::string& text, T* out, const std::string& root,
               std::string* error) {
  JsonValue doc;
  JsonReader reader(text);
  JsonIn in;
  T x{};
  std::string why;
  if (!reader.parse(&doc)) {
    why = root + ": " + reader.error();
  } else if (!in.get(doc, x, root)) {
    why = in.error();
  }
  if (!why.empty()) {
    if (error != nullptr) *error = why;
    return false;
  }
  *out = std::move(x);
  return true;
}

}  // namespace repro::obs
