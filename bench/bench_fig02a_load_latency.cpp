// Figure 2a: load-latency curve of one DDR5-4800 channel.
//
// Open-loop random line addresses (Bernoulli arrivals per cycle) are driven
// into the channel's two sub-channel controllers at a target utilisation,
// and the average / p90 read latency is reported. The paper's reference
// points: unloaded ~40 ns; ~3x average at 50% load, ~4x at 60%; p90 rising
// 4.7x / 7.1x at the same points.
#include <cstdint>
#include <iostream>

#include "bench/common/harness.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "dram/controller.hpp"
#include "sim/svg_plot.hpp"

namespace {

struct Point {
  double target_util;
  double achieved_util;
  double avg_ns;
  double p90_ns;
  double row_hit_rate;
  coaxial::obs::Snapshot metrics;  ///< Per-point controller stats tree.
};

Point run_point(double util, double write_share, coaxial::Cycle cycles) {
  using namespace coaxial;
  dram::Timing timing;
  dram::Geometry geom;
  obs::MetricsRegistry registry;
  const obs::Scope root(&registry, "mem");
  dram::Controller sub[2] = {
      dram::Controller(timing, geom, 64, 64, root.sub("dram/ctrl00")),
      dram::Controller(timing, geom, 64, 64, root.sub("dram/ctrl01"))};
  Rng rng(123);

  // One sub-channel transfers one line per tBL=8 cycles at 100% utilisation.
  const double lines_per_cycle = util / static_cast<double>(timing.bl);
  std::uint64_t issued = 0;
  std::uint64_t dropped = 0;
  for (Cycle now = 1; now <= cycles; ++now) {
    for (auto& s : sub) {
      if (rng.chance(lines_per_cycle)) {
        const bool is_write = rng.chance(write_share);
        const Addr line = rng.next_u64() >> 16;
        if (s.can_accept(is_write)) {
          s.enqueue(line, is_write, now, issued++);
        } else {
          ++dropped;  // Open-loop: overloaded points shed arrivals.
        }
      }
      s.tick(now);
      s.completions().clear();
    }
  }

  Point p;
  p.target_util = util;
  double busy = 0, hits = 0, total_cls = 0;
  FixedHistogram channel = sub[0].read_latency_hist();  // All the channel's reads.
  channel.merge(sub[1].read_latency_hist());
  for (const auto& s : sub) {
    busy += static_cast<double>(s.stats().data_bus_busy_cycles);
    hits += static_cast<double>(s.stats().row_hits);
    total_cls += static_cast<double>(s.stats().row_hits + s.stats().row_misses +
                                     s.stats().row_conflicts);
  }
  p.achieved_util = busy / (2.0 * static_cast<double>(cycles));
  p.avg_ns = coaxial::kNsPerCycle * channel.mean();
  p.p90_ns = coaxial::kNsPerCycle * static_cast<double>(channel.percentile(0.90));
  p.row_hit_rate = total_cls > 0 ? hits / total_cls : 0;
  p.metrics = registry.snapshot();
  return p;
}

}  // namespace

int main() {
  using namespace coaxial;
  bench::announce("Figure 2a", "DDR5-4800 channel load-latency curve (random traffic)");
  const Cycle cycles = static_cast<Cycle>(bench_instr_budget() * 20);

  report::Table table({"target util%", "achieved util%", "avg latency (ns)",
                       "p90 latency (ns)", "row-hit rate"});
  std::vector<double> xs, avg_series, p90_series;
  std::vector<sim::RunResult> runs;
  for (double u : {0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}) {
    Point p = run_point(u, /*write_share=*/0.0, cycles);
    xs.push_back(100 * p.achieved_util);
    avg_series.push_back(p.avg_ns);
    p90_series.push_back(p.p90_ns);
    table.add_row({report::num(100 * p.target_util, 0),
                   report::num(100 * p.achieved_util, 1), report::num(p.avg_ns, 1),
                   report::num(p.p90_ns, 1), report::num(p.row_hit_rate, 2)});
    sim::RunResult r;
    r.config_name = "DDR5-channel";
    r.workload_name = "open-loop-util-" + report::num(100 * u, 0);
    r.metrics = std::move(p.metrics);
    runs.push_back(std::move(r));
  }
  table.print();
  const std::string svg = bench::out_path("fig02a_load_latency.svg");
  if (report::write_line_chart_svg(svg, "DDR5-4800 channel load-latency", xs,
                                   {{"avg", avg_series}, {"p90", p90_series}},
                                   "achieved utilisation %", "read latency (ns)")) {
    std::cout << "[svg] " << svg << "\n";
  }
  std::cout << "\nPaper reference: ~40 ns unloaded; avg 3x/4x at 50%/60% load; "
               "p90 4.7x/7.1x.\n";
  bench::finish(table, "fig02a_load_latency.csv", runs);
  return 0;
}
