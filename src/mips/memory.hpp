// The flat memory of the hypothetical platform, one type for every executor
// of a SoftBinary: the MIPS simulator, the IR interpreter and the RTL
// simulator.  A data segment of kDataSegmentSize bytes at kDataBase starts
// as a copy of the binary's initialized data; a stack segment of kStackSize
// bytes ends at kStackTop.  Every other address is unmapped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "mips/binary.hpp"

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

 private:
  std::vector<std::uint8_t> data_;
  std::vector<std::uint8_t> stack_;
};

}  // namespace b2h::mips
