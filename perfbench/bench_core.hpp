// Pure helpers of the repository benchmark (perfbench.cpp): sample
// statistics, the per-operation correctness ledger, the pinned-knob check,
// profiler self-time derivation and the in-memory span recorder. Kept apart
// from the benchmark program so tests/test_bench_core.cpp can pin each rule.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

// ---------------------------------------------------------------- samples

double median(std::vector<double> v);

/// The tail of a timing sample: the highest percentile that still has at
/// least `beyond` samples above it. With n sorted samples that is the
/// value at index n-1-beyond, i.e. percentile (n-beyond)/n. Below
/// 2*beyond+1 samples that index falls under the median, so it is no
/// tail; the tail is then the maximum and `qualified` is false, so a
/// report can say so.
struct Tail {
  double value = 0;
  double percentile = 0;  ///< In [0, 100].
  std::size_t samples = 0;
  bool qualified = false;
};
Tail tail_percentile(std::vector<double> v, std::size_t beyond = 10);

// ------------------------------------------------------------ correctness

/// 64-bit FNV-1a of a stats document, printed as 16 hex digits.
std::string digest(const std::string& doc);

/// The snapshot without host-side subtrees (`host/...`: profiler totals),
/// i.e. the part that must repeat exactly for a fixed seed.
coaxial::obs::Snapshot model_only(const coaxial::obs::Snapshot& s);

/// Sum of every `*/invariants/violations` counter.
std::uint64_t invariant_violations(const coaxial::obs::Snapshot& s);

/// Per-operation outcomes. An op fails when it threw, when any invariant
/// counter is non-zero, or when its model digest differs from the
/// reference of its key (the first digest recorded for that key, or one
/// pinned up front with set_reference).
class OpLedger {
 public:
  void set_reference(const std::string& key, const std::string& digest);
  /// Records one op; returns whether it passed.
  bool record(const std::string& key, const std::string& digest,
              std::uint64_t violations);
  void record_exception(const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  /// Reference digest per key (first seen or pinned).
  const std::map<std::string, std::string>& references() const { return ref_; }

 private:
  std::map<std::string, std::string> ref_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ------------------------------------------------------------------ knobs

/// Environment variables that change the simulator's code path or host
/// cost under a workload's name. The benchmark refuses to run while any
/// is set (to any value), so a figure always means the default program.
inline constexpr std::array<const char*, 5> kPinnedKnobs = {
    "COAXIAL_SHARDS", "COAXIAL_TICK_EVERY_CYCLE", "COAXIAL_NO_READY_CACHE",
    "COAXIAL_PROF", "COAXIAL_SCHED_STATS"};

/// The pinned knobs that `getenv` reports as set.
std::vector<std::string> set_knobs(
    const std::function<const char*(const char*)>& getenv);

// ------------------------------------------------------------- self time

/// Profiler phases nest (times are inclusive). The nesting tree, parent
/// first:
///
///   sched_dispatch  > event_drain, mem_pump, core_tick
///   core_tick       > workload_gen
///   mem_pump        > dram_tick
///   dram_tick       > dram_try_issue
///
/// cache_access and mshr are not in the tree: L1 work runs inside
/// core_tick, but L2/LLC lookups and fills run inside event_drain, and the
/// flat totals cannot split the two. link_serialize, fabric_arb and the
/// shard phases stay out too; all of them are reported inclusive.
///
/// A parent that never ran (no calls: mem_pump under ServiceDriver, which
/// ticks the controllers itself) subtracts nothing, and its children count
/// as roots. Self time is clamped at zero, and derive_self reports the
/// clamped amount: the tree's self times sum to its roots' inclusive time
/// plus that amount.
struct SelfTimes {
  std::array<double, coaxial::obs::prof::kPhaseCount> ns{};
  double clamped_ns = 0;  ///< Sum of the negative remainders set to zero.
  double tree_ns = 0;     ///< Sum of self time over the phases in the tree.
};
SelfTimes derive_self(const coaxial::obs::prof::Totals& t);

/// Totals read back from a published `host/prof/<phase>/{ns,calls}`
/// subtree, as run_one and run_many publish it when profiling is on.
coaxial::obs::prof::Totals totals_from_snapshot(const coaxial::obs::Snapshot& s);

// ------------------------------------------------------------------ spans

/// One traced interval, recorded from the benchmark's own code around its
/// calls into the simulator. Times are ns; start counts from the recorder's
/// creation and is negative when only the duration is known (runs inside a
/// run_many batch report their host seconds, not their start).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root.
  std::uint64_t sim = 0;     ///< Simulation id shared by its spans.
  std::string name;
  double start_ns = 0;
  double dur_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();
  /// Opens a span and returns its id; close it with end().
  std::uint64_t begin(const std::string& name, std::uint64_t parent,
                      std::uint64_t sim);
  void end(std::uint64_t id);
  /// Adds a closed span whose start is unknown.
  void add_duration(const std::string& name, std::uint64_t parent,
                    std::uint64_t sim, double dur_ns);
  std::uint64_t next_sim() { return ++last_sim_; }

  const std::vector<Span>& spans() const { return spans_; }
  std::string to_json() const;

 private:
  double now_ns() const;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::uint64_t last_sim_ = 0;
};

}  // namespace perfbench
