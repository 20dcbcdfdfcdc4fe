#include "dram/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace coaxial::dram {
namespace {

/// Tick the controller until `token`'s completion appears or `deadline`
/// cycles pass. Returns the completion cycle (kNoCycle on timeout).
Cycle run_until_done(Controller& c, std::uint64_t token, Cycle start, Cycle deadline) {
  for (Cycle now = start; now < start + deadline; ++now) {
    c.tick(now);
    for (const auto& comp : c.completions()) {
      if (comp.token == token) {
        const Cycle done = comp.done;
        c.completions().clear();
        return done;
      }
    }
    c.completions().clear();
  }
  return kNoCycle;
}

/// The first `n` column-0 lines of `flat_bank` (across ranks), each on a
/// distinct row other than `avoid_row`.
std::vector<Addr> bank_lines(const Geometry& g, std::uint32_t flat_bank,
                             std::uint32_t avoid_row, std::size_t n) {
  const AddressMap amap(g, g.permutation_interleave);
  std::vector<Addr> lines;
  std::set<std::uint32_t> rows;
  for (Addr cand = 0; lines.size() < n; cand += g.columns) {
    const Coord c = amap.map(cand);
    if (c.flat_bank_all(g) != flat_bank || c.row == avoid_row) continue;
    if (rows.insert(c.row).second) lines.push_back(cand);
  }
  return lines;
}

TEST(DramController, UnloadedReadLatencyIsActPlusCas) {
  Timing t;
  Controller c(t, Geometry{});
  ASSERT_TRUE(c.enqueue(0, false, 10, 1));
  const Cycle done = run_until_done(c, 1, 10, 1000);
  ASSERT_NE(done, kNoCycle);
  // ACT at 11 (one cycle after enqueue tick), CAS after tRCD, data after
  // CL + BL: total ~= 1 + tRCD + CL + BL.
  const Cycle expected = t.rcd + t.cl + t.bl;
  EXPECT_GE(done - 10, expected);
  EXPECT_LE(done - 10, expected + 4);
}

TEST(DramController, RowHitIsFasterThanRowMiss) {
  Timing t;
  Controller c(t, Geometry{});
  c.enqueue(0, false, 10, 1);
  const Cycle first = run_until_done(c, 1, 10, 1000);
  ASSERT_NE(first, kNoCycle);
  // Second read to the same row (next column): row buffer hit.
  c.enqueue(1, false, first, 2);
  const Cycle second = run_until_done(c, 2, first, 1000);
  ASSERT_NE(second, kNoCycle);
  EXPECT_LT(second - first, t.rcd + t.cl + t.bl);
  EXPECT_GE(second - first, t.cl + t.bl);
  EXPECT_GE(c.stats().row_hits, 1u);
}

TEST(DramController, RowConflictPaysPrecharge) {
  Timing t;
  Geometry g;
  Controller c(t, g);
  c.enqueue(0, false, 10, 1);
  const Cycle first = run_until_done(c, 1, 10, 1000);
  // Same bank, different row: columns*banks lines ahead has the same
  // post-permutation bank only if the XOR fold matches; search for one.
  AddressMap amap(g);
  const Coord c0 = amap.map(0);
  Addr conflict_line = 0;
  for (Addr cand = g.columns * g.banks(); cand < g.columns * g.banks() * 64;
       cand += g.columns) {
    const Coord cc = amap.map(cand);
    if (cc.flat_bank(g) == c0.flat_bank(g) && cc.row != c0.row) {
      conflict_line = cand;
      break;
    }
  }
  ASSERT_NE(conflict_line, 0u);
  c.enqueue(conflict_line, false, first, 2);
  const Cycle second = run_until_done(c, 2, first, 2000);
  ASSERT_NE(second, kNoCycle);
  EXPECT_GE(second - first, t.rp + t.rcd + t.cl + t.bl);
  EXPECT_GE(c.stats().row_conflicts, 1u);
}

TEST(DramController, WriteToReadForwarding) {
  Controller c(Timing{}, Geometry{});
  c.enqueue(42, true, 10, 0);
  c.enqueue(42, false, 11, 7);
  // The read must complete almost immediately from the write queue.
  bool found = false;
  for (const auto& comp : c.completions()) {
    if (comp.token == 7) {
      EXPECT_LE(comp.done, 12u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(c.stats().reads_forwarded, 1u);
}

TEST(DramController, WritesEventuallyDrain) {
  Controller c(Timing{}, Geometry{});
  for (std::uint64_t i = 0; i < 40; ++i) c.enqueue(i * 7, true, 10, 0);
  for (Cycle now = 10; now < 20000; ++now) {
    c.tick(now);
    c.completions().clear();
  }
  EXPECT_EQ(c.stats().writes_done, 40u);
  EXPECT_EQ(c.write_queue_size(), 0u);
}

TEST(DramController, ReadsPrioritizedOverWritesBelowWatermark) {
  Controller c(Timing{}, Geometry{});
  for (std::uint64_t i = 0; i < 8; ++i) c.enqueue(1000 + i * 300, true, 10, 0);
  c.enqueue(0, false, 10, 99);
  const Cycle done = run_until_done(c, 99, 10, 2000);
  ASSERT_NE(done, kNoCycle);
  // The read must not wait for all eight writes (8 conflict writes would
  // take far longer than one read's ACT+CAS).
  EXPECT_LE(done - 10, 400u);
}

TEST(DramController, BackpressureWhenQueueFull) {
  Controller c(Timing{}, Geometry{}, /*read_queue_depth=*/4, /*write_queue_depth=*/4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(c.enqueue(i * 1000, false, 10, i));
  }
  EXPECT_FALSE(c.can_accept(false));
  EXPECT_FALSE(c.enqueue(9999, false, 10, 50));
  EXPECT_TRUE(c.can_accept(true));  // Write queue independent.
}

TEST(DramController, RefreshHappensPeriodically) {
  Timing t;
  Controller c(t, Geometry{});
  const Cycle horizon = t.refi * 5 + 1000;
  for (Cycle now = 1; now < horizon; ++now) {
    if (now % 500 == 0 && c.can_accept(false)) c.enqueue(now, false, now, now);
    c.tick(now);
    c.completions().clear();
  }
  EXPECT_GE(c.stats().refreshes, 4u);
  EXPECT_LE(c.stats().refreshes, 6u);
}

TEST(DramController, AllReadsCompleteUnderRandomLoad) {
  Controller c(Timing{}, Geometry{});
  Rng rng(5);
  std::set<std::uint64_t> outstanding;
  std::uint64_t next_token = 1;
  Cycle now = 1;
  std::uint64_t issued = 0;
  while (issued < 2000 || !outstanding.empty()) {
    if (issued < 2000 && rng.chance(0.1) && c.can_accept(false)) {
      c.enqueue(rng.next_below(1 << 24), false, now, next_token);
      outstanding.insert(next_token++);
      ++issued;
    }
    c.tick(now);
    for (const auto& comp : c.completions()) {
      ASSERT_EQ(outstanding.erase(comp.token), 1u) << "duplicate completion";
      EXPECT_GE(comp.done, now);
    }
    c.completions().clear();
    ++now;
    ASSERT_LT(now, 10'000'000u) << "reads starved";
  }
  EXPECT_EQ(c.stats().reads_done + c.stats().reads_forwarded, 2000u);
}

TEST(DramController, ServicePlusQueueEqualsTotalLatency) {
  Controller c(Timing{}, Geometry{});
  Rng rng(6);
  Cycle now = 1;
  double total_from_hist = 0;
  std::uint64_t done = 0;
  for (; done < 500; ++now) {
    if (rng.chance(0.15) && c.can_accept(false)) {
      c.enqueue(rng.next_below(1 << 20), false, now, now);
    }
    c.tick(now);
    done = c.stats().reads_done;
    c.completions().clear();
  }
  total_from_hist = c.read_latency_hist().mean() *
                    static_cast<double>(c.read_latency_hist().count());
  const double parts = c.stats().read_service_sum + c.stats().read_queue_delay_sum;
  // Forwarded reads enter the histogram but not the service/queue split.
  const double forwarded = static_cast<double>(c.stats().reads_forwarded);
  EXPECT_NEAR(parts + forwarded, total_from_hist, total_from_hist * 0.01 + 1);
}

TEST(DramController, ReadHistogramHoldsEveryCompletion) {
  // The histogram must see done - arrival of every read completion,
  // forwarded reads included, with its exact maximum.
  Controller c(Timing{}, Geometry{});
  Rng rng(11);
  std::map<std::uint64_t, Cycle> arrival;
  std::uint64_t next_token = 1;
  std::uint64_t completed = 0;
  std::uint64_t sum = 0;
  Cycle longest = 0;
  for (Cycle now = 1; now < 40'000; ++now) {
    if (rng.chance(0.2)) {
      const bool is_write = rng.chance(0.3);
      const Addr line = rng.next_below(1 << 12);  // Small footprint: forwards happen.
      if (c.can_accept(is_write) && c.enqueue(line, is_write, now, next_token)) {
        if (!is_write) arrival[next_token] = now;
        ++next_token;
      }
    }
    c.tick(now);
    for (const auto& comp : c.completions()) {
      const auto it = arrival.find(comp.token);
      ASSERT_NE(it, arrival.end());
      const Cycle latency = comp.done - it->second;
      arrival.erase(it);
      sum += latency;
      longest = std::max(longest, latency);
      ++completed;
    }
    c.completions().clear();
  }
  ASSERT_GT(c.stats().reads_forwarded, 0u);
  const FixedHistogram& h = c.read_latency_hist();
  EXPECT_EQ(h.count(), completed);
  EXPECT_EQ(h.max(), longest);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.mean() * static_cast<double>(h.count()), static_cast<double>(sum));
}

TEST(DramController, DataBusUtilizationBounded) {
  Timing t;
  Controller c(t, Geometry{});
  Rng rng(8);
  const Cycle horizon = 200000;
  for (Cycle now = 1; now < horizon; ++now) {
    if (c.can_accept(false)) c.enqueue(rng.next_below(1 << 22), false, now, now);
    c.tick(now);
    c.completions().clear();
  }
  EXPECT_LE(c.stats().data_bus_busy_cycles, horizon);
  // Saturating offered load must achieve a decent fraction of the bus.
  EXPECT_GT(static_cast<double>(c.stats().data_bus_busy_cycles) / horizon, 0.4);
}

TEST(DramController, SequentialTrafficHasHighRowHitRate) {
  Controller c(Timing{}, Geometry{});
  Cycle now = 1;
  Addr line = 0;
  while (c.stats().reads_done < 2000) {
    if (c.can_accept(false)) {
      c.enqueue(line, false, now, line);
      ++line;
    }
    c.tick(now);
    c.completions().clear();
    ++now;
  }
  EXPECT_GT(c.stats().row_hit_rate(), 0.8);
}

TEST(DramController, RandomTrafficHasLowRowHitRate) {
  Controller c(Timing{}, Geometry{});
  Rng rng(10);
  Cycle now = 1;
  while (c.stats().reads_done < 2000) {
    if (c.can_accept(false)) c.enqueue(rng.next_u64() >> 24, false, now, now);
    c.tick(now);
    c.completions().clear();
    ++now;
  }
  EXPECT_LT(c.stats().row_hit_rate(), 0.2);
}

class DramLoadLatency : public ::testing::TestWithParam<double> {};

TEST_P(DramLoadLatency, LatencyGrowsWithLoad) {
  // Property: average latency at load p must be >= latency at load p/2.
  auto measure = [](double arrival_prob) {
    Controller c(Timing{}, Geometry{});
    Rng rng(12);
    for (Cycle now = 1; now < 150000; ++now) {
      if (rng.chance(arrival_prob) && c.can_accept(false)) {
        c.enqueue(rng.next_u64() >> 24, false, now, now);
      }
      c.tick(now);
      c.completions().clear();
    }
    return c.read_latency_hist().mean();
  };
  const double p = GetParam();
  EXPECT_GE(measure(p) * 1.02, measure(p / 2));
}

INSTANTIATE_TEST_SUITE_P(Loads, DramLoadLatency, ::testing::Values(0.02, 0.05, 0.08));

TEST(DramController, IdleControllerDoesNothing) {
  Controller c(Timing{}, Geometry{});
  for (Cycle now = 1; now < 1000; ++now) c.tick(now);
  EXPECT_TRUE(c.idle());
  EXPECT_EQ(c.stats().reads_done, 0u);
  EXPECT_EQ(c.stats().activates, 0u);
}

TEST(DramController, ResetStatsClearsCountersOnly) {
  Controller c(Timing{}, Geometry{});
  c.enqueue(0, false, 1, 1);
  run_until_done(c, 1, 1, 1000);
  EXPECT_GT(c.stats().reads_done, 0u);
  c.reset_stats();
  EXPECT_EQ(c.stats().reads_done, 0u);
  EXPECT_EQ(c.read_latency_hist().count(), 0u);
}

TEST(DramController, ActivatesMatchRowMissesPlusConflicts) {
  Controller c(Timing{}, Geometry{});
  Rng rng(14);
  Cycle now = 1;
  while (c.stats().reads_done < 1000) {
    if (rng.chance(0.05) && c.can_accept(false)) {
      c.enqueue(rng.next_below(1 << 18), false, now, now);
    }
    c.tick(now);
    c.completions().clear();
    ++now;
  }
  // Every serviced non-hit needs an ACT; idle precharge may add a few PREs
  // but ACT count should be within the classified non-hit arrivals.
  EXPECT_GT(c.stats().activates, 0u);
  EXPECT_LE(c.stats().activates,
            c.stats().row_misses + c.stats().row_conflicts + c.stats().refreshes + 64);
}

// The FR-FCFS fairness guard: only the 16 oldest requests of a queue are
// scheduling candidates. A row hit on the open row, queued behind
// `conflicts` older requests to other rows of the same bank, is served
// first only while it sits inside that window.
std::vector<std::uint64_t> serve_order_behind_conflicts(std::size_t conflicts) {
  const Timing t;
  const Geometry g;
  Controller c(t, g);
  c.enqueue(0, false, 10, 1000);
  const Cycle start = run_until_done(c, 1000, 10, 1000);  // Opens line 0's row.
  const Coord home = AddressMap(g, g.permutation_interleave).map(0);
  const std::vector<Addr> lines = bank_lines(g, home.flat_bank_all(g), home.row, conflicts);
  for (std::uint64_t i = 0; i < conflicts; ++i) c.enqueue(lines[i], false, start, i);
  c.enqueue(1, false, start, 999);  // Next column of the open row.
  std::vector<std::uint64_t> order;
  for (Cycle now = start; order.size() < conflicts + 1 && now < start + 100000; ++now) {
    c.tick(now);
    for (const auto& comp : c.completions()) order.push_back(comp.token);
    c.completions().clear();
  }
  return order;
}

TEST(DramScanWindow, RowHitBehindSixteenConflictsWaitsForThem) {
  const std::vector<std::uint64_t> order = serve_order_behind_conflicts(16);
  ASSERT_EQ(order.size(), 17u);
  EXPECT_EQ(order.back(), 999u) << "the row hit overtook the scan window";
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i) << "FCFS order";
}

TEST(DramScanWindow, RowHitInsideWindowIsServedFirst) {
  // Control for the test above: one fewer conflict puts the hit at queue
  // index 15, inside the window, and FR serves it first.
  const std::vector<std::uint64_t> order = serve_order_behind_conflicts(15);
  ASSERT_EQ(order.size(), 16u);
  EXPECT_EQ(order.front(), 999u);
}

TEST(DramScanWindow, SeventeenthRequestEntersWindowOnCasErase) {
  // Line 0 is activated at cycle 10, then 15 row hits on its row and one
  // request to a closed bank (queue index 16) arrive. The closed-bank ACT
  // could issue at once, but it is outside the window until line 0's CAS
  // (tRCD later) erases the head; it must issue on the very next cycle,
  // in both the live-window and the from-scratch mode.
  const Timing t;
  const Geometry g;
  const Coord home = AddressMap(g, g.permutation_interleave).map(0);
  const Addr other = bank_lines(g, (home.flat_bank_all(g) + 1) % g.total_banks(),
                                kClosedRow, 1)[0];
  std::vector<Cycle> act_cycles;
  for (const bool live : {true, false}) {
    Controller c(t, g);
    c.set_ready_cache(live);
    c.enqueue(0, false, 10, 0);
    c.tick(10);
    ASSERT_EQ(c.stats().activates, 1u);
    for (std::uint64_t i = 1; i < 16; ++i) c.enqueue(i, false, 11, i);
    c.enqueue(other, false, 11, 16);
    ASSERT_EQ(c.read_queue_size(), 17u);
    Cycle first_cas = kNoCycle;
    Cycle second_act = kNoCycle;
    for (Cycle now = 11; now < 200 && second_act == kNoCycle; ++now) {
      c.tick(now);
      if (first_cas == kNoCycle && c.stats().row_hits + c.stats().row_misses > 0) {
        first_cas = now;
      }
      if (c.stats().activates == 2) second_act = now;
      c.completions().clear();
    }
    EXPECT_EQ(first_cas, 10 + t.rcd);
    EXPECT_EQ(second_act, first_cas + 1) << (live ? "live window" : "from scratch");
    act_cycles.push_back(second_act);
  }
  EXPECT_EQ(act_cycles[0], act_cycles[1]);
}

TEST(DramScanWindow, EnqueueBeyondWindowLeavesWakeUnchanged) {
  // 16 conflicts on a freshly activated bank all wait for tRAS; a 17th
  // request to a closed bank could ACT at once, but at queue index 16 it
  // is not a candidate, so the tick's wake bound must not move.
  const Timing t;
  const Geometry g;
  const Coord home = AddressMap(g, g.permutation_interleave).map(0);
  const std::vector<Addr> conflicts =
      bank_lines(g, home.flat_bank_all(g), home.row, 16);
  const Addr other = bank_lines(g, (home.flat_bank_all(g) + 1) % g.total_banks(),
                                kClosedRow, 1)[0];
  for (const bool live : {true, false}) {
    Controller c(t, g);
    c.set_ready_cache(live);
    c.enqueue(0, false, 1, 1000);
    Cycle start = 1;
    while (c.stats().reads_done == 0 && start < 1000) c.tick(start++);  // ACT, CAS.
    ASSERT_EQ(c.stats().reads_done, 1u);
    for (std::uint64_t i = 0; i < 16; ++i) c.enqueue(conflicts[i], false, start, i);
    const Cycle wake = c.tick(start);
    ASSERT_GT(wake, start + 2) << "window should be blocked on tRAS";
    ASSERT_TRUE(c.enqueue(other, false, start + 1, 16));
    EXPECT_EQ(c.tick(start + 1), wake) << (live ? "live window" : "from scratch");
  }
}

}  // namespace
}  // namespace coaxial::dram
