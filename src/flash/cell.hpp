// Flash cell types.
//
// Consumer-grade zoned flash is heterogeneous (paper §II-A, §III-B): a
// small region of blocks is programmed in SLC mode (fast, 4 KiB partial
// programming) and fronts the normal multi-level region (TLC or QLC,
// large one-shot programming unit, slow).
#pragma once

#include <cstdint>

namespace conzone {

enum class CellType : std::uint8_t {
  kSlc = 0,
  kTlc = 1,
  kQlc = 2,
};

/// Bits stored per cell; also the capacity divisor when a multi-level
/// block is programmed in SLC mode.
constexpr std::uint32_t BitsPerCell(CellType t) {
  switch (t) {
    case CellType::kSlc: return 1;
    case CellType::kTlc: return 3;
    case CellType::kQlc: return 4;
  }
  return 1;
}

}  // namespace conzone
