#include "support/json_parse.hpp"

#include <cstdlib>
#include <cstring>

namespace b2h::support {

namespace {

/// Nesting ceiling: wire requests are shallow (2-3 levels); anything deeper
/// is hostile or broken input and must not be able to exhaust the stack.
constexpr int kMaxDepth = 64;

void AppendUtf8(std::string* out, unsigned code_point) {
  if (code_point < 0x80) {
    out->push_back(static_cast<char>(code_point));
  } else if (code_point < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else if (code_point < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code_point >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> ParseDocument() {
    SkipWhitespace();
    JsonValue value;
    if (!ParseValue(&value, 0)) return std::nullopt;
    SkipWhitespace();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(char expected) {
    if (AtEnd() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth || AtEnd()) return false;
    switch (Peek()) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      case 't':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return ConsumeLiteral("true");
      case 'f':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = false;
        return ConsumeLiteral("false");
      case 'n':
        out->kind_ = JsonValue::Kind::kNull;
        return ConsumeLiteral("null");
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipWhitespace();
    if (Consume('}')) return true;
    while (true) {
      SkipWhitespace();
      std::string key;
      if (AtEnd() || Peek() != '"' || !ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return false;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipWhitespace();
    if (Consume(']')) return true;
    while (true) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return false;
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (true) {
      if (AtEnd()) return false;  // unterminated
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return false;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: the low half must follow immediately.
            if (!ConsumeLiteral("\\u")) return false;
            unsigned low = 0;
            if (!ParseHex4(&low) || low < 0xDC00 || low > 0xDFFF) return false;
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return false;  // lone low surrogate
          }
          AppendUtf8(out, code);
          break;
        }
        default: return false;
      }
    }
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || Peek() < '0' || Peek() > '9') return false;
    // JSON forbids leading zeros: "0" and "0.5" parse, "01" does not.
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') return false;
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') return false;
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    // The slice is a valid JSON number by construction; strtod on a
    // NUL-terminated copy converts it (locale-independent for this subset).
    const std::string number(text_.substr(start, pos_ - start));
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = std::strtod(number.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || !value->is_string()) return fallback;
  return value->string();
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || !value->is_number()) return fallback;
  return value->number();
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || !value->is_bool()) return fallback;
  return value->bool_value();
}

std::optional<std::vector<std::string>> JsonValue::GetStringArray(
    std::string_view key) const {
  std::vector<std::string> out;
  const JsonValue* value = Find(key);
  if (value == nullptr) return out;
  if (!value->is_array()) return std::nullopt;
  for (const JsonValue& element : value->array()) {
    if (!element.is_string()) return std::nullopt;
    out.push_back(element.string());
  }
  return out;
}

}  // namespace b2h::support
