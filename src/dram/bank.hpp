// Per-bank DRAM state machine bookkeeping.
//
// Each bank tracks its open row and the earliest cycle at which each command
// class may next be issued to it. Cross-bank constraints (tRRD, tFAW, tCCD,
// bus turnaround) live in the controller.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace coaxial::dram {

/// Reserved `Bank::open_row` value: no row is open. Real rows are below
/// `Geometry::rows`, so a row compare against it never matches.
inline constexpr std::uint32_t kClosedRow = ~std::uint32_t{0};

struct Bank {
  std::uint32_t open_row = kClosedRow;

  Cycle next_act = 0;  ///< Earliest ACT (after tRP from PRE, or tRC from ACT).
  Cycle next_rd = 0;   ///< Earliest read CAS (after tRCD).
  Cycle next_wr = 0;   ///< Earliest write CAS (after tRCD).
  Cycle next_pre = 0;  ///< Earliest PRE (after tRAS / tRTP / tWR).
};

}  // namespace coaxial::dram
