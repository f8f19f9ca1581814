// SoftBinary: the software-binary image that is the *input* to the
// decompilation-based partitioner.
//
// The paper's tool parses the final software binary, so this image carries
// only what a stripped executable would: machine code, initialized data, and
// the entry point.  Function symbols are kept as optional side information
// used purely for human-readable reports; no analysis depends on them
// (function boundaries are rediscovered from `jal` targets).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace b2h::mips {

/// Memory layout constants of the hypothetical platform.
inline constexpr std::uint32_t kTextBase = 0x0040'0000u;
inline constexpr std::uint32_t kDataBase = 0x1000'0000u;
inline constexpr std::uint32_t kDataSegmentSize = 1u << 20;  // 1 MiB
inline constexpr std::uint32_t kStackTop = 0x7FFF'F000u;
inline constexpr std::uint32_t kStackSize = 1u << 16;  // 64 KiB below kStackTop
/// Return-address sentinel: when the PC reaches this address the program has
/// returned from its entry function and the simulator halts.
inline constexpr std::uint32_t kHaltAddress = 0xDEAD'0000u;

struct SoftBinary {
  std::uint32_t entry = kTextBase;
  std::vector<std::uint32_t> text;  ///< machine words, based at kTextBase
  std::vector<std::uint8_t> data;   ///< initialized data, based at kDataBase

  /// Optional (reporting only): symbol name -> address.
  std::map<std::string, std::uint32_t> symbols;

  [[nodiscard]] std::uint32_t text_end() const noexcept {
    return kTextBase + static_cast<std::uint32_t>(text.size()) * 4u;
  }
  [[nodiscard]] bool ContainsText(std::uint32_t addr) const noexcept {
    return addr >= kTextBase && addr < text_end() && (addr & 3u) == 0;
  }
  [[nodiscard]] std::uint32_t WordAt(std::uint32_t addr) const {
    return text.at((addr - kTextBase) / 4u);
  }
};

}  // namespace b2h::mips
