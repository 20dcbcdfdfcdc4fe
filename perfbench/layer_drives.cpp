#include "layer_drives.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_core.hpp"
#include "cache/cache.hpp"
#include "coaxial/configs.hpp"
#include "common/rng.hpp"
#include "dram/controller.hpp"
#include "pool/directory.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using coaxial::Addr;

// The closed-12c catalog mix: the generator's branch mix differs per
// workload (streams vs pointer chases vs stores).
const char* const kMix[] = {"lbm", "bwaves", "mcf", "omnetpp", "canneal", "stream-copy"};

// Written once per drive so the synthesized stream stays observable.
volatile std::uint64_t g_sink = 0;

double ns_since(Clock::time_point t0, std::uint64_t units) {
  const std::chrono::duration<double, std::nano> d = Clock::now() - t0;
  return d.count() / static_cast<double>(units);
}

double drive_workload(std::uint64_t seed) {
  constexpr std::size_t kBatch = 256;
  constexpr std::uint64_t kPerWorkload = 400'000;
  std::vector<coaxial::workload::Generator> gens;
  std::uint32_t core = 0;
  for (const char* name : kMix) {
    gens.emplace_back(coaxial::workload::find_workload(name), core++, seed);
  }
  std::vector<coaxial::workload::Instr> buf(kBatch);
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (auto& g : gens) {
    for (std::uint64_t done = 0; done < kPerWorkload; done += kBatch) {
      g.next_batch(buf.data(), kBatch);
      sink += buf[kBatch - 1].addr;
    }
  }
  const double ns = ns_since(t0, kPerWorkload * gens.size());
  g_sink = sink;
  return ns;
}

double drive_cache(std::uint64_t seed) {
  // An L2-shaped cache fed the memory ops of the closed-12c mix (line
  // addresses, stores as writes), filling on every miss as the hierarchy
  // does. The stream is synthesized before the clock starts.
  const auto& ua = coaxial::sys::coaxial_4x().uarch;
  coaxial::cache::Cache l2(std::size_t{ua.l2_kb} * 1024, ua.l2_ways);
  struct Op {
    Addr line;
    bool write;
  };
  std::vector<Op> ops;
  std::uint32_t core = 0;
  for (const char* name : kMix) {
    coaxial::workload::Generator g(coaxial::workload::find_workload(name), core++, seed);
    for (int i = 0; i < 600'000; ++i) {
      const coaxial::workload::Instr in = g.next();
      if (in.kind == coaxial::workload::InstrKind::kAlu) continue;
      ops.push_back({in.addr / coaxial::kLineBytes,
                     in.kind == coaxial::workload::InstrKind::kStore});
    }
  }
  const auto t0 = Clock::now();
  for (const Op& op : ops) {
    const bool hit = op.write ? l2.write(op.line) : l2.lookup(op.line);
    if (!hit) (void)l2.fill(op.line, op.write);
  }
  return ns_since(t0, ops.size());
}

double drive_dram(std::uint64_t seed) {
  // One sub-channel kept saturated: both queues are refilled whenever the
  // controller acts, with uniformly random lines, 30% writes (the
  // svc-saturate mix).
  const auto cfg = coaxial::sys::coaxial_4x();
  coaxial::dram::Controller ctrl(cfg.dram_timing, cfg.dram_geometry);
  coaxial::Rng rng(seed);
  constexpr std::uint64_t kLines = 1ull << 22;
  constexpr std::uint64_t kAccesses = 100'000;
  std::uint64_t admitted = 0;
  std::uint64_t token = 0;
  coaxial::Cycle now = 0;
  const auto t0 = Clock::now();
  while (admitted < kAccesses) {
    for (;;) {
      const bool write = rng.chance(0.3);
      if (!ctrl.can_accept(write)) break;
      ctrl.enqueue(rng.next_below(kLines), write, now, ++token);
      ++admitted;
    }
    // Jump to the controller's next possible action, as the event-driven
    // system pump does.
    const coaxial::Cycle wake = ctrl.tick(now);
    ctrl.completions().clear();
    now = std::max(now + 1, wake == coaxial::kNoCycle ? now + 1 : wake);
  }
  return ns_since(t0, admitted);
}

double drive_pool(std::uint64_t seed) {
  // A 4-host directory under the pool-pingpong sharing shape: 80% of
  // accesses hit 8 hot pages, the rest spread over the 16K-page window,
  // half of them writes. Every coherence transaction is acked at once.
  const auto pcfg = coaxial::sys::coaxial_pooled(4);
  coaxial::pool::Directory dir(pcfg.directory_entries, pcfg.n_hosts);
  coaxial::Rng rng(seed);
  constexpr std::uint64_t kAccesses = 300'000;
  std::vector<Addr> pages(kAccesses);
  std::vector<std::uint8_t> host(kAccesses);
  std::vector<bool> write(kAccesses);
  for (std::uint64_t i = 0; i < kAccesses; ++i) {
    pages[i] = rng.chance(pcfg.shared_hot_prob)
                   ? rng.next_below(pcfg.shared_hot_pages)
                   : rng.next_below(pcfg.shared_pages);
    host[i] = static_cast<std::uint8_t>(rng.next_below(pcfg.n_hosts));
    write[i] = rng.chance(0.5);
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kAccesses; ++i) {
    const auto d = dir.access(pages[i], host[i], write[i]);
    if (d.needs_txn) dir.unlock(pages[i]);
  }
  return ns_since(t0, kAccesses);
}

template <typename F>
double median_of(int repeats, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < repeats; ++i) v.push_back(f());
  return median(v);
}

}  // namespace

LayerDrives run_layer_drives(std::uint64_t seed, int repeats) {
  LayerDrives d;
  d.workload_ns_per_instr = median_of(repeats, [&] { return drive_workload(seed); });
  d.cache_ns_per_access = median_of(repeats, [&] { return drive_cache(seed); });
  d.dram_ns_per_access = median_of(repeats, [&] { return drive_dram(seed); });
  d.pool_ns_per_access = median_of(repeats, [&] { return drive_pool(seed); });
  return d;
}

}  // namespace perfbench
