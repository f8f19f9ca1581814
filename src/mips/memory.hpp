// The flat memory of the hypothetical platform, one type for every executor
// of a SoftBinary: the MIPS simulator, the IR interpreter and the RTL
// simulator.  A data segment of kDataSegmentSize bytes at kDataBase starts
// as a copy of the binary's initialized data; a stack segment of kStackSize
// bytes ends at kStackTop.  Every other address is unmapped.
//
// The IR-level executors (interpreter, RTL simulator) load and store
// through Load/Store, which add the platform's alignment rule and its
// little-endian byte order.  The MIPS simulator's engines do their own
// accesses over At, so they stay an independent implementation of both.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "mips/binary.hpp"
#include "support/bits.hpp"

namespace b2h::mips {

class Memory {
 public:
  explicit Memory(std::span<const std::uint8_t> initial_data)
      : data_(kDataSegmentSize, 0), stack_(kStackSize, 0) {
    // An empty image may have a null data(), which memcpy must not see.
    if (!initial_data.empty()) {
      std::memcpy(data_.data(), initial_data.data(),
                  std::min<std::size_t>(initial_data.size(), data_.size()));
    }
  }

  /// The `size` bytes at `addr`, or null unless all of them lie in one
  /// segment.  End-exclusive and wrap-safe: `addr + size` overflows 32 bits
  /// for addr near UINT32_MAX and would pass a naive `addr + size <= end`
  /// check, so the offset into the segment is compared against the segment
  /// size instead — neither subtraction can wrap once `addr >= base` holds.
  [[nodiscard]] std::uint8_t* At(std::uint32_t addr, unsigned size) {
    if (addr >= kDataBase) {
      const std::uint32_t offset = addr - kDataBase;
      if (offset < kDataSegmentSize && size <= kDataSegmentSize - offset) {
        return data_.data() + offset;
      }
    }
    constexpr std::uint32_t kStackBase = kStackTop - kStackSize;
    if (addr >= kStackBase) {
      const std::uint32_t offset = addr - kStackBase;
      if (offset < kStackSize && size <= kStackSize - offset) {
        return stack_.data() + offset;
      }
    }
    return nullptr;
  }
  [[nodiscard]] const std::uint8_t* At(std::uint32_t addr,
                                       unsigned size) const {
    return const_cast<Memory*>(this)->At(addr, size);
  }

  /// The `bytes`-byte (1, 2 or 4) little-endian value at `addr`, sign- or
  /// zero-extended to 32 bits; nullopt when the access is unmapped or not
  /// aligned to its size.
  [[nodiscard]] std::optional<std::int32_t> Load(std::uint32_t addr,
                                                 unsigned bytes,
                                                 bool is_signed) const {
    const std::uint8_t* p = At(addr, bytes);
    if (p == nullptr || (addr & (bytes - 1)) != 0) return std::nullopt;
    std::uint32_t raw = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      raw |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    }
    return is_signed ? SignExtend(raw, bytes * 8)
                     : static_cast<std::int32_t>(raw);
  }

  /// Writes the low `bytes` bytes (1, 2 or 4) of `value` at `addr`,
  /// little-endian; false, writing nothing, when the access is unmapped or
  /// not aligned to its size.
  [[nodiscard]] bool Store(std::uint32_t addr, unsigned bytes,
                           std::uint32_t value) {
    std::uint8_t* p = At(addr, bytes);
    if (p == nullptr || (addr & (bytes - 1)) != 0) return false;
    for (unsigned i = 0; i < bytes; ++i) {
      p[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    return true;
  }

 private:
  std::vector<std::uint8_t> data_;
  std::vector<std::uint8_t> stack_;
};

}  // namespace b2h::mips
