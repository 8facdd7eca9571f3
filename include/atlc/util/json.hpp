#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace atlc::util {

/// Minimal owned JSON document tree for the benchmark harness.
///
/// Objects preserve insertion order so emitted files diff cleanly across
/// runs; lookups are linear, which is fine at bench-report sizes. `dump`
/// escapes control characters and non-ASCII-safe sequences; `parse` is a
/// strict recursive-descent reader (the round trip is covered by
/// tests/test_bench_json.cpp). No external dependency: the container image
/// fixes the available packages, so the harness carries its own reader.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double v) : type_(Type::Number), num_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(unsigned v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), str_(s) {}

  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0.0) const {
    return is_number() ? num_ : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  /// Object access; creates the key (and coerces a Null to Object) like a
  /// map. Keys keep first-insertion order. Throws std::logic_error on a
  /// non-object scalar — silent member loss on dump() would be worse.
  Json& operator[](const std::string& key);
  /// Lookup without creation; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Array append; coerces a Null to Array.
  void push_back(Json v);

  /// Element count of an array/object; 0 for scalars.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t i) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items()
      const {
    return members_;
  }
  [[nodiscard]] std::vector<std::pair<std::string, Json>>& items() {
    return members_;
  }

  /// Serialize. `indent` > 0 pretty-prints with that many spaces per level;
  /// 0 emits the compact single-line form.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Strict parse of a complete JSON document (trailing garbage is an
  /// error). Returns nullopt and fills `*error` (if given) on failure.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> elems_;                            // Array
  std::vector<std::pair<std::string, Json>> members_;  // Object
};

/// Escape `s` as the *contents* of a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Write `doc` to `path` as the harness and tools emit every JSON file:
/// dump(2) plus a trailing newline. False on any open/write/close failure.
[[nodiscard]] bool write_json_file(const std::string& path, const Json& doc);

}  // namespace atlc::util
