// google-benchmark microbenchmarks of the simulator's building blocks:
// how fast the substrates themselves run on the host. Useful for keeping
// the full figure matrix tractable and for catching performance
// regressions in the hot paths.
#include <benchmark/benchmark.h>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "coaxial/configs.hpp"
#include "dram/controller.hpp"
#include "link/cxl_link.hpp"
#include "noc/mesh.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace coaxial;

void BM_RngDraw(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngDraw);

void BM_GeneratorNext(benchmark::State& state) {
  workload::Generator gen(workload::find_workload("pagerank"), 0, 1);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_GeneratorNext);

void BM_CacheLookupHit(benchmark::State& state) {
  cache::Cache c(2 << 20, 16);
  for (Addr line = 0; line < 1024; ++line) c.fill(line, false);
  Addr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.lookup(line));
    line = (line + 1) % 1024;
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheFillEvict(benchmark::State& state) {
  cache::Cache c(1 << 20, 16);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.fill(rng.next_below(1 << 18), false));
  }
}
BENCHMARK(BM_CacheFillEvict);

void BM_MeshHomeTile(benchmark::State& state) {
  noc::Mesh m;
  Addr line = 0;
  for (auto _ : state) benchmark::DoNotOptimize(m.home_tile(line++));
}
BENCHMARK(BM_MeshHomeTile);

void BM_LinkSend(benchmark::State& state) {
  link::CxlLink l(link::LaneConfig::x8(), 1u << 30);
  Cycle now = 0;
  for (auto _ : state) benchmark::DoNotOptimize(l.send_rx(64, now++));
}
BENCHMARK(BM_LinkSend);

/// DRAM controller cycles/second under saturating sequential traffic.
void BM_DramControllerSequential(benchmark::State& state) {
  dram::Controller c({}, {});
  Addr line = 0;
  Cycle now = 0;
  for (auto _ : state) {
    ++now;
    if (c.can_accept(false)) {
      c.enqueue(line, false, now, line);
      ++line;
    }
    c.tick(now);
    c.completions().clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_DramControllerSequential);

void BM_DramControllerRandom(benchmark::State& state) {
  dram::Controller c({}, {});
  Rng rng(3);
  Cycle now = 0;
  for (auto _ : state) {
    ++now;
    if (c.can_accept(false)) c.enqueue(rng.next_u64() >> 20, false, now, now);
    c.tick(now);
    c.completions().clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_DramControllerRandom);

/// DRAM controller under saturating mixed traffic, driven event-style: one
/// iteration is one tick, taken at the cycle tick() last asked for. Before
/// each tick a requester offers its 30%-write random stream until an access
/// is refused (it stays pending, head of line), so the read queue stays
/// full and the write queue cycles between the drain watermarks: deep
/// FR-FCFS windows on both queues, write drain and forwarding. Items are
/// admitted accesses.
void BM_DramControllerSaturatedMixed(benchmark::State& state) {
  dram::Controller c({}, {});
  Rng rng(4);
  Cycle now = 1;
  std::int64_t admitted = 0;
  bool pending_write = rng.chance(0.3);
  Addr pending_line = rng.next_u64() >> 20;
  for (auto _ : state) {
    while (c.enqueue(pending_line, pending_write, now, pending_line)) {
      ++admitted;
      pending_write = rng.chance(0.3);
      pending_line = rng.next_u64() >> 20;
    }
    now = c.tick(now);
    c.completions().clear();
  }
  state.SetItemsProcessed(admitted);
}
BENCHMARK(BM_DramControllerSaturatedMixed);

/// End-to-end simulator throughput: host-time per simulated instruction.
void BM_FullSystemThroughput(benchmark::State& state) {
  const bool coaxial = state.range(0) != 0;
  const auto cfg = coaxial ? sys::coaxial_4x() : sys::baseline_ddr();
  std::uint64_t instr_total = 0;
  for (auto _ : state) {
    std::vector<workload::WorkloadParams> per_core(cfg.uarch.cores,
                                                   workload::find_workload("bc"));
    sim::System system(cfg, per_core, 42);
    system.run(2000, 10000);
    instr_total += system.stats().instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instr_total));
  state.SetLabel(cfg.name);
}
BENCHMARK(BM_FullSystemThroughput)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
