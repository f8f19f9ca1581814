// Portable binary serialization for on-disk cache entries.
//
// Fixed-width little-endian encodings only, so an entry written on one
// machine decodes identically on any other.  Reads are bounds-checked: a
// truncated or over-long buffer makes the reader fail-stop (every
// subsequent Read* returns false) rather than fault — the disk cache treats
// any decode failure as a miss, never an error.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace b2h::support {

/// FNV-1a 64's offset basis: the state before any byte is hashed.
inline constexpr std::uint64_t kFnv1a64Basis = 1469598103934665603ull;

/// FNV-1a 64 over a byte range, continuing from `state` (the result of an
/// earlier call, to hash a sequence of ranges as one): payload checksums,
/// artifact keys (explore::ContentHasher) and block-cache keys.
[[nodiscard]] inline std::uint64_t Fnv1a64(
    std::string_view data, std::uint64_t state = kFnv1a64Basis) {
  for (const char c : data) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ull;
  }
  return state;
}

/// Fnv1a64 over the 8 little-endian bytes of `value`, continuing from
/// `state`.
[[nodiscard]] inline std::uint64_t Fnv1a64U64(std::uint64_t value,
                                              std::uint64_t state) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (i * 8));
  return Fnv1a64({bytes, sizeof bytes}, state);
}

class BinaryWriter {
 public:
  void U8(std::uint8_t value) { out_.push_back(static_cast<char>(value)); }

  void U32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((value >> (i * 8)) & 0xff));
    }
  }

  void U64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((value >> (i * 8)) & 0xff));
    }
  }

  void I64(std::int64_t value) { U64(static_cast<std::uint64_t>(value)); }

  void F64(double value) {  // by bit pattern: round-trips exactly
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    U64(bits);
  }

  void Bool(bool value) { U8(value ? 1 : 0); }

  void Str(std::string_view text) {
    U64(text.size());
    out_.append(text.data(), text.size());
  }

  [[nodiscard]] const std::string& buffer() const { return out_; }
  [[nodiscard]] std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool U8(std::uint8_t* out) {
    if (!Need(1)) return false;
    *out = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool U32(std::uint32_t* out) {
    if (!Need(4)) return false;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (i * 8);
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool U64(std::uint64_t* out) {
    if (!Need(8)) return false;
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (i * 8);
    }
    pos_ += 8;
    *out = value;
    return true;
  }

  bool I64(std::int64_t* out) {
    std::uint64_t raw = 0;
    if (!U64(&raw)) return false;
    *out = static_cast<std::int64_t>(raw);
    return true;
  }

  bool F64(double* out) {
    std::uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(out, &bits, sizeof bits);
    return true;
  }

  bool Bool(bool* out) {
    std::uint8_t raw = 0;
    if (!U8(&raw)) return false;
    *out = raw != 0;
    return true;
  }

  bool Str(std::string* out) {
    std::uint64_t size = 0;
    if (!U64(&size) || !Need(size)) return false;
    out->assign(data_.data() + pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return true;
  }

  /// True while every read so far succeeded.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when the whole buffer was consumed (trailing garbage detector).
  [[nodiscard]] bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(std::uint64_t bytes) {
    if (!ok_ || bytes > data_.size() - pos_) return Fail();
    return true;
  }
  bool Fail() {
    ok_ = false;
    return false;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace b2h::support
