#include "obs/metrics.hpp"

#include <stdexcept>

namespace coaxial::obs {

void MetricsRegistry::check_fresh(const std::string& path) const {
  if (contains(path)) {
    throw std::invalid_argument("metric path already registered: " + path);
  }
}

Counter& MetricsRegistry::counter(const std::string& path) {
  auto it = counters_.find(path);
  if (it != counters_.end()) return *it->second;
  check_fresh(path);
  return *counters_.emplace(path, std::make_unique<Counter>()).first->second;
}

Gauge& MetricsRegistry::gauge(const std::string& path) {
  auto it = gauges_.find(path);
  if (it != gauges_.end()) return *it->second;
  check_fresh(path);
  return *gauges_.emplace(path, std::make_unique<Gauge>()).first->second;
}

void MetricsRegistry::expose(const std::string& path, std::function<double()> probe) {
  check_fresh(path);
  gauge_probes_.emplace(path, std::move(probe));
}

void MetricsRegistry::expose_counter(const std::string& path,
                                     std::function<std::uint64_t()> probe) {
  check_fresh(path);
  counter_probes_.emplace(path, std::move(probe));
}

void MetricsRegistry::expose_histogram(const std::string& path,
                                       const FixedHistogram& hist) {
  check_fresh(path);
  hist_views_.emplace(path, &hist);
}

bool MetricsRegistry::contains(const std::string& path) const {
  return counters_.count(path) != 0 || gauges_.count(path) != 0 ||
         gauge_probes_.count(path) != 0 || counter_probes_.count(path) != 0 ||
         hist_views_.count(path) != 0;
}

std::size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + gauge_probes_.size() +
         counter_probes_.size() + hist_views_.size();
}

namespace {
void flatten_hist(Snapshot& out, const std::string& path, const FixedHistogram& h) {
  out[path + "/count"] = MetricValue::of(h.count());
  out[path + "/mean"] = MetricValue::of(h.mean());
  out[path + "/p50"] = MetricValue::of(h.percentile(0.50));
  out[path + "/p90"] = MetricValue::of(h.percentile(0.90));
  out[path + "/p99"] = MetricValue::of(h.percentile(0.99));
  out[path + "/p999"] = MetricValue::of(h.percentile(0.999));
  out[path + "/max"] = MetricValue::of(h.max());
}
}  // namespace

Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  for (const auto& [path, c] : counters_) out[path] = MetricValue::of(c->value());
  for (const auto& [path, g] : gauges_) out[path] = MetricValue::of(g->value());
  for (const auto& [path, probe] : counter_probes_) out[path] = MetricValue::of(probe());
  for (const auto& [path, probe] : gauge_probes_) out[path] = MetricValue::of(probe());
  for (const auto& [path, h] : hist_views_) flatten_hist(out, path, *h);
  return out;
}

std::string idx(std::uint32_t value, int width) {
  std::string s = std::to_string(value);
  while (static_cast<int>(s.size()) < width) s.insert(s.begin(), '0');
  return s;
}

}  // namespace coaxial::obs
