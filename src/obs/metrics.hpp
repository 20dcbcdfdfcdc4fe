// Hierarchical metrics registry: the single source of truth for simulation
// statistics.
//
// Components (DRAM controllers, CXL links, caches, CALM, the system loop)
// register instruments at construction under slash-separated paths
// ("mem/dram/ctrl00/reads_done"). Three instrument families:
//
//  * owned instruments — Counter / Gauge allocated by the registry and
//    updated directly on the hot path (stable addresses);
//  * probes — callbacks sampled only at snapshot time, used by components
//    that keep their own internal stats structs (cheap to register, zero
//    hot-path cost);
//  * histogram views — a component-owned FixedHistogram exposed as one
//    leaf set: count/mean/p50/p90/p99/p999/max.
//
// `snapshot()` flattens everything into a deterministic, lexicographically
// ordered path -> value map, which the JSON emitter (stats_json.hpp) turns
// into a nested stats tree. Determinism is load-bearing: the golden and
// determinism tests compare emitted bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/histogram.hpp"

namespace coaxial::obs {

/// Monotonic integer instrument.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { v_ += delta; }
  void set(std::uint64_t v) { v_ = v; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time floating value instrument (also used for accumulating sums
/// of fractional quantities via `add`).
class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double delta) { v_ += delta; }
  double value() const { return v_; }
  void reset() { v_ = 0.0; }

 private:
  double v_ = 0.0;
};

/// One flattened metric sample. Integral values (counters, histogram counts
/// and cycle percentiles) are emitted as JSON integers and compared exactly
/// by statdiff; non-integral values go through relative tolerances.
struct MetricValue {
  bool integral = false;
  std::uint64_t count = 0;  ///< Valid when `integral`.
  double value = 0.0;       ///< Valid when `!integral`.

  static MetricValue of(std::uint64_t v) { return {true, v, 0.0}; }
  static MetricValue of(double v) { return {false, 0, v}; }
  double as_double() const { return integral ? static_cast<double>(count) : value; }
};

/// Deterministically ordered flat view of every registered metric.
using Snapshot = std::map<std::string, MetricValue>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Owned instruments. Re-requesting an existing path of the same kind
  /// returns the same instrument; registering a path that already holds a
  /// different kind throws std::invalid_argument.
  Counter& counter(const std::string& path);
  Gauge& gauge(const std::string& path);

  /// Probes: sampled at snapshot time. Duplicate paths throw.
  void expose(const std::string& path, std::function<double()> probe);
  void expose_counter(const std::string& path, std::function<std::uint64_t()> probe);

  /// Expose a component-owned histogram as count/mean/p50/p90/p99/p999/max
  /// leaves under `path` (the cycle percentiles and max are integral, so
  /// statdiff compares them exactly). The histogram must outlive the
  /// registry's snapshots. Duplicate paths throw.
  void expose_histogram(const std::string& path, const FixedHistogram& hist);

  bool contains(const std::string& path) const;
  std::size_t size() const;

  Snapshot snapshot() const;

 private:
  void check_fresh(const std::string& path) const;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::function<double()>> gauge_probes_;
  std::map<std::string, std::function<std::uint64_t()>> counter_probes_;
  std::map<std::string, const FixedHistogram*> hist_views_;
};

/// A (registry, path-prefix) handle passed down component constructors.
/// A default-constructed Scope is inert: every registration is a no-op and
/// instrument getters return nullptr, so components remain constructible
/// standalone (unit tests, micro-benches) with zero observability cost.
class Scope {
 public:
  Scope() = default;
  Scope(MetricsRegistry* registry, std::string prefix)
      : reg_(registry), prefix_(std::move(prefix)) {}

  bool valid() const { return reg_ != nullptr; }
  MetricsRegistry* registry() const { return reg_; }
  const std::string& prefix() const { return prefix_; }

  Scope sub(const std::string& name) const {
    return valid() ? Scope(reg_, join(name)) : Scope();
  }

  /// Feature-gated subtree: `sub(name)` when `enabled`, an inert Scope
  /// otherwise. This is the shared "subtree registered only when the
  /// feature is on" pattern (`ras/*`, `tier/*`, `svc/*`, `pool/*`):
  /// registration code stays unconditional while the metrics-tree shape —
  /// and therefore the golden stats document — is untouched whenever the
  /// feature is off.
  Scope sub(const std::string& name, bool enabled) const {
    return enabled ? sub(name) : Scope();
  }

  Counter* counter(const std::string& name) const {
    return valid() ? &reg_->counter(join(name)) : nullptr;
  }
  Gauge* gauge(const std::string& name) const {
    return valid() ? &reg_->gauge(join(name)) : nullptr;
  }
  void expose(const std::string& name, std::function<double()> probe) const {
    if (valid()) reg_->expose(join(name), std::move(probe));
  }
  void expose_counter(const std::string& name,
                      std::function<std::uint64_t()> probe) const {
    if (valid()) reg_->expose_counter(join(name), std::move(probe));
  }
  void expose_histogram(const std::string& name, const FixedHistogram& hist) const {
    if (valid()) reg_->expose_histogram(join(name), hist);
  }

 private:
  std::string join(const std::string& name) const {
    return prefix_.empty() ? name : prefix_ + "/" + name;
  }

  MetricsRegistry* reg_ = nullptr;
  std::string prefix_;
};

/// Fixed-width decimal index ("00", "01", ...) so sibling instances sort
/// numerically in the lexicographic snapshot order.
std::string idx(std::uint32_t value, int width = 2);

}  // namespace coaxial::obs
