// Bandwidth explorer: interactively sweep the two low-level substrates —
// the DDR5 channel's load-latency behaviour and the CXL link's
// serialisation/queuing behaviour — without running full-system simulations.
//
//   ./bandwidth_explorer dram [write_share]   # load-latency curve
//   ./bandwidth_explorer link [port_ns]       # CXL link one-way latencies
//
// Useful for understanding *why* COAXIAL wins: compare where the DDR curve
// explodes with what the CXL premium costs.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "dram/controller.hpp"
#include "link/cxl_link.hpp"
#include "sim/report.hpp"

using namespace coaxial;

namespace {

void explore_dram(double write_share) {
  std::cout << "DDR5-4800 channel (2 sub-channels), write share "
            << report::num(write_share, 2) << "\n\n";
  report::Table table({"target util%", "achieved util%", "avg read lat (ns)",
                       "p90 (ns)", "p99 (ns)", "row-hit rate"});
  for (double util = 0.05; util <= 0.95; util += 0.1) {
    dram::Controller sub[2] = {dram::Controller({}, {}), dram::Controller({}, {})};
    Rng rng(1);
    const double lines_per_cycle = util / 8.0;
    const Cycle horizon = 400000;
    std::uint64_t token = 0;
    for (Cycle now = 1; now <= horizon; ++now) {
      for (auto& s : sub) {
        if (rng.chance(lines_per_cycle) && s.can_accept(rng.chance(write_share))) {
          s.enqueue(rng.next_u64() >> 16, rng.chance(write_share), now, ++token);
        }
        s.tick(now);
        s.completions().clear();
      }
    }
    double busy = 0, hits = 0, classified = 0;
    FixedHistogram channel = sub[0].read_latency_hist();  // Both sub-channels' reads.
    channel.merge(sub[1].read_latency_hist());
    for (const auto& s : sub) {
      busy += static_cast<double>(s.stats().data_bus_busy_cycles);
      hits += static_cast<double>(s.stats().row_hits);
      classified += static_cast<double>(s.stats().row_hits + s.stats().row_misses +
                                        s.stats().row_conflicts);
    }
    table.add_row({report::num(100 * util, 0),
                   report::num(100 * busy / (2 * 400000.0), 1),
                   report::num(kNsPerCycle * channel.mean(), 1),
                   report::num(cycles_to_ns(channel.percentile(0.90)), 1),
                   report::num(cycles_to_ns(channel.percentile(0.99)), 1),
                   report::num(classified > 0 ? hits / classified : 0, 2)});
  }
  table.print();
}

void explore_link(double port_ns) {
  std::cout << "x8 CXL link latencies at " << port_ns << " ns/port\n\n";
  report::Table table({"message", "direction", "unloaded one-way (ns)",
                       "4-port round trip + data (ns)"});
  for (const auto& lanes : {link::LaneConfig::x8(port_ns), link::LaneConfig::x8_asym(port_ns)}) {
    link::CxlLink l(lanes);
    const std::string kind = lanes.rx_lanes == lanes.tx_lanes ? "x8" : "x8-asym";
    table.add_row({kind + " read request (16B)", "TX",
                   report::num(cycles_to_ns(l.unloaded_one_way(16, lanes.tx_goodput_gbps)), 1),
                   report::num(lanes.read_overhead_ns(), 1)});
    table.add_row({kind + " read data (64B)", "RX",
                   report::num(cycles_to_ns(l.unloaded_one_way(64, lanes.rx_goodput_gbps)), 1),
                   "-"});
    table.add_row({kind + " write (64B)", "TX",
                   report::num(cycles_to_ns(l.unloaded_one_way(64, lanes.tx_goodput_gbps)), 1),
                   "-"});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "dram";
  if (mode == "dram") {
    explore_dram(argc > 2 ? std::strtod(argv[2], nullptr) : 0.33);
  } else if (mode == "link") {
    explore_link(argc > 2 ? std::strtod(argv[2], nullptr) : 12.5);
  } else {
    std::cerr << "usage: bandwidth_explorer [dram [write_share] | link [port_ns]]\n";
    return 1;
  }
  return 0;
}
