// Minimal bounds-checked JSON reader for the b2h-serve wire protocol.
//
// The repo already has a JSON *writer* discipline (support/json.hpp +
// bench/bench_json.hpp); this is the matching reader: a strict
// recursive-descent parser over a complete document with a hard recursion
// depth limit, returning a plain value tree.  Any syntax error, trailing
// garbage, or depth overflow yields nullopt — callers turn that into a
// structured `bad-json` protocol error, never an abort (regression-tested
// in test_serve).  Input size is bounded upstream by the frame size cap.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace b2h::support {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one complete JSON document (surrounding whitespace allowed).
  /// nullopt on any error; never throws on malformed input.
  [[nodiscard]] static std::optional<JsonValue> Parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  [[nodiscard]] bool bool_value() const { return bool_; }
  [[nodiscard]] double number() const { return number_; }
  [[nodiscard]] const std::string& string() const { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& array() const { return array_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const {
    return members_;
  }

  /// Object member lookup (first occurrence); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue* Find(std::string_view key) const;

  // Typed member accessors with defaults, for tolerant request decoding.
  [[nodiscard]] std::string GetString(std::string_view key,
                                      std::string fallback = "") const;
  [[nodiscard]] double GetNumber(std::string_view key,
                                 double fallback = 0.0) const;
  [[nodiscard]] bool GetBool(std::string_view key, bool fallback) const;
  /// Member as a vector of strings (non-string elements skipped); empty
  /// when absent or not an array.
  [[nodiscard]] std::vector<std::string> GetStringArray(
      std::string_view key) const;

  /// A null value; the parser makes every other kind.
  static JsonValue MakeNull() { return JsonValue(); }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace b2h::support
