// Single-layer drives: each feeds one layer's public API a seeded stream
// shaped like the workload that stresses it, with the profiler off, and
// returns host ns per unit of work. These per-layer costs carry none of the
// phase profiler's overhead.
#pragma once

#include <cstdint>

namespace perfbench {

struct LayerDrives {
  double workload_ns_per_instr = 0;  ///< Generator::next_batch, closed-12c mix.
  double cache_ns_per_access = 0;    ///< Cache::lookup/write + fill on miss, L2 shape.
  double dram_ns_per_access = 0;     ///< Controller enqueue/tick, saturated, 30% writes.
  double pool_ns_per_access = 0;     ///< Directory::access/unlock, pingpong-skewed pages.
};

/// Runs every drive `repeats` times and keeps each one's median.
LayerDrives run_layer_drives(std::uint64_t seed, int repeats);

}  // namespace perfbench
