#include "dram/controller.hpp"

#include <algorithm>
#include <bit>

#include "common/env.hpp"
#include "obs/profiler.hpp"

namespace coaxial::dram {

namespace {
/// max(a, b) by masking. Which operand wins is data-dependent and
/// unpredictable, and a compiler that lowers std::max to a branch there
/// pays a mispredict on every other slot.
inline Cycle select_max(Cycle a, Cycle b) {
  const Cycle b_wins = Cycle{0} - Cycle{a < b};
  return (a & ~b_wins) | (b & b_wins);
}
}  // namespace

Controller::Controller(const Timing& timing, const Geometry& geometry,
                       std::size_t read_queue_depth, std::size_t write_queue_depth,
                       obs::Scope scope)
    : timing_(timing),
      amap_(geometry, geometry.permutation_interleave),
      read_depth_(read_queue_depth),
      write_depth_(write_queue_depth),
      banks_(geometry.total_banks()),
      bank_last_use_(geometry.total_banks(), 0),
      idle_eligible_(geometry.total_banks(), kNoCycle),
      next_act_rank_(geometry.ranks, 0),
      next_act_group_(static_cast<std::size_t>(geometry.ranks) * geometry.bank_groups, 0),
      next_cas_rank_(geometry.ranks, 0),
      next_cas_group_(static_cast<std::size_t>(geometry.ranks) * geometry.bank_groups, 0),
      next_rd_after_wr_group_(static_cast<std::size_t>(geometry.ranks) * geometry.bank_groups, 0),
      faw_(geometry.ranks),
      next_refresh_(timing.refi),
      checker_(timing, geometry) {
  read_q_.reserve(read_depth_);
  write_q_.reserve(write_depth_);
  completions_.reserve(16);
  const std::size_t rank_groups = static_cast<std::size_t>(geometry.ranks) * geometry.bank_groups;
  shared_[0].assign(rank_groups * 4, 0);
  shared_[1].assign(rank_groups * 4, 0);
  update_shared_terms();
  // Escape hatch / A-B switch: COAXIAL_NO_READY_CACHE=1 forces a
  // from-scratch window derivation and rescan every tick. Results must be
  // identical either way (the live window is exact, the caches only skip
  // provably fruitless scans); see test_perf_invariants.
  ready_cache_enabled_ = !env_flag("COAXIAL_NO_READY_CACHE");
  if (scope.valid()) {
    scope.expose_counter("reads_done", [this] { return stats_.reads_done; });
    scope.expose_counter("writes_done", [this] { return stats_.writes_done; });
    scope.expose_counter("reads_forwarded", [this] { return stats_.reads_forwarded; });
    scope.expose_counter("row_hits", [this] { return stats_.row_hits; });
    scope.expose_counter("row_misses", [this] { return stats_.row_misses; });
    scope.expose_counter("row_conflicts", [this] { return stats_.row_conflicts; });
    scope.expose_counter("activates", [this] { return stats_.activates; });
    scope.expose_counter("precharges", [this] { return stats_.precharges; });
    scope.expose_counter("refreshes", [this] { return stats_.refreshes; });
    scope.expose_counter("data_bus_busy_cycles",
                         [this] { return stats_.data_bus_busy_cycles; });
    scope.expose("read_queue_delay_sum", [this] { return stats_.read_queue_delay_sum; });
    scope.expose("read_service_sum", [this] { return stats_.read_service_sum; });
    scope.expose_histogram("read_latency", read_hist_);
    const obs::Scope inv = scope.sub("invariants");
    inv.expose_counter("violations", [this] { return checker_.violations(); });
    inv.expose_counter("trc", [this] { return checker_.trc_violations(); });
    inv.expose_counter("trcd", [this] { return checker_.trcd_violations(); });
    inv.expose_counter("trp", [this] { return checker_.trp_violations(); });
    inv.expose_counter("tras", [this] { return checker_.tras_violations(); });
    inv.expose_counter("tccd_l", [this] { return checker_.tccd_violations(); });
    inv.expose_counter("tfaw", [this] { return checker_.tfaw_violations(); });
    inv.expose_counter("refresh", [this] { return checker_.refresh_violations(); });
  }
}

bool Controller::can_accept(bool is_write) const {
  return is_write ? write_q_.size() < write_depth_ : read_q_.size() < read_depth_;
}

bool Controller::enqueue(Addr local_line, bool is_write, Cycle now, std::uint64_t token) {
  if (!can_accept(is_write)) return false;
  if (!is_write) {
    // Write-to-read forwarding: a read that hits a queued write is served
    // from the controller's write buffer without touching DRAM. The line
    // index makes the check O(1) instead of a write-queue scan.
    auto it = write_lines_.find(local_line);
    if (it != write_lines_.end() && it->second > 0) {
      completions_.push_back({token, now + 1, 1, 0});
      ++stats_.reads_forwarded;
      read_hist_.add(1);
      return true;
    }
  }
  Request req;
  req.coord = amap_.map(local_line);
  req.flat_bank = req.coord.flat_bank_all(amap_.geometry());
  req.rg = req.coord.rank * amap_.geometry().bank_groups + req.coord.bank_group;
  req.arrival = now;
  req.token = token;
  req.local_line = local_line;
  std::vector<Request>& queue = is_write ? write_q_ : read_q_;
  queue.push_back(req);
  if (is_write) ++write_lines_[local_line];
  if (queue.size() <= kScanWindow) {
    // A new candidate entered the queue window: the cached next-ready cycle
    // for that queue no longer bounds it. Beyond the window the request is
    // not a candidate, so the window and its bound are unchanged.
    const std::uint32_t qi = is_write ? 1 : 0;
    derive_slot(qi, win_[qi].size++, req);
    queue_ready_[qi] = 0;
  }
  // The whole-tick bound goes either way: drain-mode watermarks depend on
  // queue depth.
  wake_cache_ = 0;
  return true;
}

Cycle Controller::tick(Cycle now) {
  // Whole-tick fast path (see wake_cache_ in the header): before the cached
  // bound, a full tick issues nothing, mutates nothing, and returns this
  // same bound — so skip it entirely. Checked before the profiler scope:
  // a few-ns early return is not worth attributing.
  if (ready_cache_enabled_ && wake_cache_ != 0 && now < wake_cache_) {
    return wake_cache_;
  }
  COAXIAL_PROF_SCOPE(kDramTick);
  if (now >= next_refresh_ && !refresh_pending_) {
    // Arming refresh changes which candidates a scan may consider (ACTs and
    // PREs are suppressed: their shared terms become "never"), so cached
    // per-queue bounds from before the transition no longer mirror a fresh
    // scan. Drop them to keep cached and brute-force wake bounds
    // bit-identical.
    refresh_pending_ = true;
    update_shared_terms();
    note_command();
  }
  if (refresh_pending_) {
    if (try_refresh(now)) return now + 1;
    // While waiting to close banks for refresh we still allow CAS commands
    // below, so in-flight row hits drain naturally; ACTs and PREs are
    // suppressed by their shared terms (update_shared_terms).
  }
  if (read_q_.empty() && write_q_.empty()) {
    // Nothing to schedule; opportunistically close idled rows so the next
    // burst starts from precharged banks (adaptive open-page).
    if (open_banks_ > 0) idle_precharge(now);
    return compute_wake(now);
  }

  // Write-drain watermark policy (DRAMsim3-style): drain once the write
  // queue crosses half full (or reads are absent), down to 1/8. Frequent
  // read/write turnarounds are a first-order capacity loss on real
  // controllers; modelling them matters for the loaded-latency curve.
  if (!draining_writes_) {
    if (write_q_.size() >= write_depth_ / 2 || (read_q_.empty() && !write_q_.empty())) {
      draining_writes_ = true;
    }
  } else {
    if (write_q_.size() <= write_depth_ / 8 && !read_q_.empty()) draining_writes_ = false;
    if (write_q_.empty()) draining_writes_ = false;
  }

  if (draining_writes_) {
    if (try_issue(write_q_, /*is_write=*/true, now)) return now + 1;
    if (try_issue(read_q_, /*is_write=*/false, now)) return now + 1;
  } else {
    if (try_issue(read_q_, /*is_write=*/false, now)) return now + 1;
    if (try_issue(write_q_, /*is_write=*/true, now)) return now + 1;
  }
  idle_precharge(now);
  return compute_wake(now);
}

Controller::Pick Controller::scan_window(std::uint32_t qi, Cycle now) {
  if (!ready_cache_enabled_) {
    update_shared_terms();
    rebuild_window(qi);
  }
  const Window& w = win_[qi];
  const Cycle* shared = shared_[qi].data();
  std::uint32_t hit = 0;
  std::uint32_t ready = 0;
  Cycle bound = kNoCycle;
  static_assert(kScanWindow <= 32, "slot masks are uint32_t");
  // Youngest slot first, so each mask takes its next bit by a shift of
  // one and bit i ends up as slot i.
  for (std::uint32_t i = w.size; i-- > 0;) {
    const SlotClass cls = w.cls[i];
    const Cycle t = select_max(w.bank_ready[i], shared[(w.rg[i] << 2) | cls]);
    hit = (hit << 1) | std::uint32_t{cls == kRowHit};
    ready = (ready << 1) | std::uint32_t{t <= now};
    bound = std::min(bound, t);
  }
  // FR: the oldest ready row hit; else FCFS: the oldest ready ACT/PRE.
  const std::uint32_t first_ready = hit & ready;
  const std::uint32_t pick = first_ready != 0 ? first_ready : ready;
  return {pick != 0 ? std::countr_zero(pick) : -1, bound};
}

void Controller::update_shared_terms() {
  update_cas_terms();
  for (std::uint32_t rank = 0; rank < next_act_rank_.size(); ++rank) update_act_terms(rank);
  // ACTs and PREs for new rows are suppressed while a refresh is pending,
  // and so are their wake candidates: "never". No ACT can issue then, so
  // only the refresh transitions (which call this) move these entries.
  const Cycle pre = refresh_pending_ ? kNoCycle : 0;
  for (std::size_t rg = 0; rg < next_act_group_.size(); ++rg) {
    for (std::vector<Cycle>& shared : shared_) {
      shared[(rg << 2) | kRowOther] = pre;
      if (refresh_pending_) shared[(rg << 2) | kBankClosed] = kNoCycle;
    }
  }
}

void Controller::update_cas_terms() {
  // Rank-to-rank bus turnaround (tCS): switching ranks mid-stream stalls
  // the shared data bus briefly — the 2DPC bandwidth cost. One rank never
  // differs from last_cas_rank_, so no geometry check is needed. Scalars
  // are read once: the stores below could alias them.
  const Cycle rank_switch = last_cas_end_ + timing_.cs;
  const Cycle rd_bus = next_rd_bus_;
  const Cycle wr_bus = next_wr_bus_;
  const std::uint32_t last_rank = last_cas_rank_;
  const std::uint32_t groups = amap_.geometry().bank_groups;
  Cycle* rd = shared_[0].data();
  Cycle* wr = shared_[1].data();
  for (std::uint32_t rank = 0, rg = 0; rank < next_cas_rank_.size(); ++rank) {
    const Cycle rank_cas = std::max(next_cas_rank_[rank], rank != last_rank ? rank_switch : 0);
    for (std::uint32_t g = 0; g < groups; ++g, ++rg) {
      const Cycle cas = std::max(rank_cas, next_cas_group_[rg]);
      rd[(rg << 2) | kRowHit] = std::max({cas, rd_bus, next_rd_after_wr_group_[rg]});
      wr[(rg << 2) | kRowHit] = std::max(cas, wr_bus);
    }
  }
}

void Controller::update_act_terms(std::uint32_t rank) {
  // tFAW: at most four ACTs per rank in any window (a zero slot means
  // "never used").
  const FawWindow& faw = faw_[rank];
  const Cycle fourth_act = faw.acts[faw.pos];
  const Cycle faw_ready = fourth_act != 0 ? fourth_act + timing_.faw : 0;
  const Cycle rank_act = std::max(next_act_rank_[rank], faw_ready);
  const std::uint32_t groups = amap_.geometry().bank_groups;
  Cycle* rd = shared_[0].data();
  Cycle* wr = shared_[1].data();
  for (std::uint32_t rg = rank * groups; rg < (rank + 1) * groups; ++rg) {
    const Cycle act = std::max(rank_act, next_act_group_[rg]);
    rd[(rg << 2) | kBankClosed] = act;
    wr[(rg << 2) | kBankClosed] = act;
  }
}

void Controller::classify_slot(std::uint32_t qi, std::uint32_t i) {
  Window& w = win_[qi];
  const Bank& b = banks_[w.bank[i]];
  if (b.open_row == w.row[i]) {
    w.cls[i] = kRowHit;
    w.bank_ready[i] = qi == 1 ? b.next_wr : b.next_rd;
  } else if (b.open_row != kClosedRow) {
    w.cls[i] = kRowOther;
    w.bank_ready[i] = b.next_pre;
  } else {
    w.cls[i] = kBankClosed;
    w.bank_ready[i] = b.next_act;
  }
}

void Controller::derive_slot(std::uint32_t qi, std::uint32_t i, const Request& req) {
  Window& w = win_[qi];
  w.bank[i] = static_cast<std::uint16_t>(req.flat_bank);
  w.rg[i] = static_cast<std::uint16_t>(req.rg);
  w.row[i] = req.coord.row;
  classify_slot(qi, i);
}

void Controller::rederive_bank(std::uint32_t flat_bank) {
  for (std::uint32_t qi = 0; qi < 2; ++qi) {
    // Gather the matching slots as a mask first: a compare-and-branch per
    // slot mispredicts on every scattered match.
    const Window& w = win_[qi];
    std::uint32_t on_bank = 0;
    for (std::uint32_t i = 0; i < w.size; ++i) {
      on_bank |= std::uint32_t{w.bank[i] == flat_bank} << i;
    }
    for (; on_bank != 0; on_bank &= on_bank - 1) {
      classify_slot(qi, static_cast<std::uint32_t>(std::countr_zero(on_bank)));
    }
  }
}

void Controller::rederive_all() {
  for (std::uint32_t qi = 0; qi < 2; ++qi) {
    for (std::uint32_t i = 0; i < win_[qi].size; ++i) classify_slot(qi, i);
  }
}

void Controller::rebuild_window(std::uint32_t qi) {
  const std::vector<Request>& q = qi == 1 ? write_q_ : read_q_;
  Window& w = win_[qi];
  w.size = static_cast<std::uint32_t>(std::min<std::size_t>(q.size(), kScanWindow));
  for (std::uint32_t i = 0; i < w.size; ++i) derive_slot(qi, i, q[i]);
}

void Controller::erase_slot(std::uint32_t qi, std::uint32_t i) {
  // Mirrors a queue erase at index i: later slots move up one, and the
  // request that just entered the window (old queue index kScanWindow)
  // fills the last slot.
  Window& w = win_[qi];
  for (std::uint32_t j = i + 1; j < w.size; ++j) {
    w.bank_ready[j - 1] = w.bank_ready[j];
    w.row[j - 1] = w.row[j];
    w.bank[j - 1] = w.bank[j];
    w.rg[j - 1] = w.rg[j];
    w.cls[j - 1] = w.cls[j];
  }
  --w.size;
  const std::vector<Request>& q = qi == 1 ? write_q_ : read_q_;
  if (q.size() >= kScanWindow) derive_slot(qi, w.size++, q[kScanWindow - 1]);
}

Cycle Controller::compute_wake(Cycle now) {
  // Every constraint that gated an issue this cycle is a timestamp frozen
  // until the controller acts again, so the min over all candidates is a
  // sound wake-up: nothing can become issueable earlier.
  Cycle wake = kNoCycle;
  if (refresh_pending_) {
    // Blocked on closing banks (or on their PRE/ACT timing) for refresh.
    bool any_open = false;
    for (const Bank& b : banks_) {
      if (b.open_row == kClosedRow) continue;
      any_open = true;
      wake = std::min(wake, std::max(now + 1, b.next_pre));
    }
    if (!any_open) {
      Cycle ready = now + 1;
      for (const Bank& b : banks_) ready = std::max(ready, b.next_act);
      wake = std::min(wake, ready);
    }
  } else {
    wake = std::min(wake, std::max(now + 1, next_refresh_));
  }
  const auto queue_bound = [&](std::uint32_t qi) {
    // A still-valid cached bound is exact, not just conservative: it was a
    // min over frozen candidate timestamps, none of which were floored (a
    // floored candidate would have expired the cache), and refresh_pending_
    // cannot have changed inside a validity window (the transition clears
    // the cache). So reuse it instead of rescanning the window.
    if (ready_cache_enabled_ && queue_ready_[qi] != 0 && now < queue_ready_[qi]) {
      wake = std::min(wake, queue_ready_[qi]);
      return;
    }
    // Until q_ready (and absent any command or in-window enqueue, which
    // clear it) a scan of this queue cannot issue anything.
    const Cycle q_ready = std::max(now + 1, scan_window(qi, now).ready);
    queue_ready_[qi] = q_ready;
    wake = std::min(wake, q_ready);
  };
  queue_bound(0);
  queue_bound(1);
  if (timing_.idle_precharge != 0 && open_banks_ > 0) {
    if (ready_cache_enabled_ && idle_ready_ != 0) {
      // The exact minimum eligibility (see set_idle_eligible); kNoCycle
      // means "no open bank can become eligible" and the min is then a
      // no-op.
      wake = std::min(wake, std::max(now + 1, idle_ready_));
    } else {
      Cycle raw_min = kNoCycle;
      for (const Cycle eligible : idle_eligible_) raw_min = std::min(raw_min, eligible);
      idle_ready_ = raw_min;
      if (raw_min != kNoCycle) wake = std::min(wake, std::max(now + 1, raw_min));
    }
  }
  wake_cache_ = wake;
  return wake;
}

void Controller::set_idle_eligible(std::uint32_t flat_bank, Cycle eligible) {
  const Cycle old = idle_eligible_[flat_bank];
  idle_eligible_[flat_bank] = eligible;
  if (idle_ready_ == 0) return;  // Unknown stays unknown.
  if (eligible <= idle_ready_) {
    idle_ready_ = eligible;
  } else if (old == idle_ready_) {
    idle_ready_ = 0;  // The minimum may have risen: the next scan finds it.
  }
}

void Controller::idle_precharge(Cycle now) {
  // Adaptive open-page: close a bank whose open row has been idle, so
  // lightly-loaded (and random) traffic pays ACT+CAS rather than
  // PRE+ACT+CAS (the paper's ~40 ns unloaded latency). Disabled when
  // timing_.idle_precharge is 0.
  if (timing_.idle_precharge == 0) return;
  if (open_banks_ == 0) return;
  // A known minimum eligibility in the future proves this scan would close
  // nothing.
  if (ready_cache_enabled_ && idle_ready_ != 0 && now < idle_ready_) return;
  // Closed banks sit at kNoCycle in idle_eligible_, so one contiguous pass
  // replaces the open-bank walk over scattered Bank structs; iteration order
  // (and hence which eligible bank closes first) is unchanged.
  Cycle raw_min = kNoCycle;
  const std::size_t n = idle_eligible_.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    const Cycle eligible = idle_eligible_[i];
    if (eligible <= now) {
      Bank& b = banks_[i];
      b.open_row = kClosedRow;
      --open_banks_;
      set_idle_eligible(i, kNoCycle);
      b.next_act = std::max(b.next_act, now + timing_.rp);
      ++stats_.precharges;
      checker_.on_pre(i, now);
      rederive_bank(i);
      note_command();
      return;  // One command per cycle.
    }
    raw_min = std::min(raw_min, eligible);
  }
  // Failed scan: every open bank's eligibility is a frozen future timestamp,
  // so the accumulated min doubles as the cache compute_wake reuses — the
  // idle scan runs once per tick instead of twice.
  idle_ready_ = raw_min;
}

bool Controller::try_refresh(Cycle now) {
  // Close all open banks first (respecting per-bank PRE timing), then hold
  // the whole rank for tRFC.
  bool any_open = false;
  for (std::uint32_t i = 0; i < banks_.size(); ++i) {
    Bank& b = banks_[i];
    if (b.open_row == kClosedRow) continue;
    any_open = true;
    if (now >= b.next_pre) {
      b.open_row = kClosedRow;
      --open_banks_;
      set_idle_eligible(i, kNoCycle);
      b.next_act = std::max(b.next_act, now + timing_.rp);
      ++stats_.precharges;
      checker_.on_pre(i, now);
      rederive_bank(i);
      note_command();
      return true;  // One command per cycle.
    }
  }
  if (any_open) return false;
  // All banks closed: wait until every bank may legally accept an ACT, which
  // guarantees preceding PREs have completed, then refresh.
  Cycle ready = now;
  for (const Bank& b : banks_) ready = std::max(ready, b.next_act);
  if (ready > now) return false;
  for (Bank& b : banks_) b.next_act = now + timing_.rfc;
  rederive_all();
  ++stats_.refreshes;
  checker_.on_refresh(now, next_refresh_);
  next_refresh_ += timing_.refi;
  refresh_pending_ = false;
  update_shared_terms();
  note_command();
  return true;
}

void Controller::issue_cas(Request& req, bool is_write, Cycle now) {
  const Geometry& g = amap_.geometry();
  Bank& b = banks_[req.flat_bank];
  bank_last_use_[req.flat_bank] = now;
  checker_.on_cas(req.coord, is_write, now);

  // Row-locality classification at service time: a request that needed no
  // preparatory command of its own rode an already-open row.
  Cycle ideal_service = timing_.cl + timing_.bl;
  if (req.needed_pre) {
    ++stats_.row_conflicts;
    ideal_service += timing_.rp + timing_.rcd;
  } else if (req.needed_act) {
    ++stats_.row_misses;
    ideal_service += timing_.rcd;
  } else {
    ++stats_.row_hits;
  }

  next_cas_rank_[req.coord.rank] = now + timing_.ccd_s;
  const std::size_t rg0 = req.rg;
  next_cas_group_[rg0] = now + timing_.ccd_l;
  stats_.data_bus_busy_cycles += timing_.bl;
  last_cas_end_ = now + timing_.bl;
  last_cas_rank_ = req.coord.rank;

  if (is_write) {
    const Cycle data_end = now + timing_.cwl + timing_.bl;
    b.next_pre = std::max(b.next_pre, data_end + timing_.wr);
    set_idle_eligible(req.flat_bank, std::max(b.next_pre, now + timing_.idle_precharge));
    // tWTR starts at the end of write data (within the written rank).
    for (std::uint32_t grp = 0; grp < g.bank_groups; ++grp) {
      const Cycle wtr = (grp == req.coord.bank_group) ? timing_.wtr_l : timing_.wtr_s;
      const std::size_t rg = static_cast<std::size_t>(req.coord.rank) * g.bank_groups + grp;
      next_rd_after_wr_group_[rg] = std::max(next_rd_after_wr_group_[rg], data_end + wtr);
    }
    next_rd_bus_ = std::max(next_rd_bus_, data_end + timing_.wtr_s);
    ++stats_.writes_done;
  } else {
    b.next_pre = std::max(b.next_pre, now + timing_.rtp);
    set_idle_eligible(req.flat_bank, std::max(b.next_pre, now + timing_.idle_precharge));
    next_wr_bus_ = std::max(next_wr_bus_, now + timing_.rtw);
    const Cycle done = now + timing_.cl + timing_.bl;
    const Cycle total = done - req.arrival;
    const Cycle ideal = std::min(ideal_service, total);
    completions_.push_back({req.token, done, ideal, total - ideal});
    read_hist_.add(total);
    stats_.read_service_sum += static_cast<double>(ideal);
    stats_.read_queue_delay_sum += static_cast<double>(total - ideal);
    ++stats_.reads_done;
  }
  update_cas_terms();
}

void Controller::commit_prep(Request& req, Cycle now) {
  // Caller established legality via scan_window (and no pending refresh);
  // this is the mutating tail only.
  Bank& b = banks_[req.flat_bank];

  if (b.open_row != kClosedRow) {  // Wrong row (row hits never get here).
    b.open_row = kClosedRow;
    --open_banks_;
    set_idle_eligible(req.flat_bank, kNoCycle);
    b.next_act = std::max(b.next_act, now + timing_.rp);
    ++stats_.precharges;
    checker_.on_pre(req.flat_bank, now);
    req.needed_pre = true;
    return;
  }
  const std::size_t rg = req.rg;
  FawWindow& faw = faw_[req.coord.rank];
  faw.acts[faw.pos] = now;
  faw.pos = (faw.pos + 1) % 4;

  ++open_banks_;
  b.open_row = req.coord.row;
  b.next_rd = now + timing_.rcd;
  b.next_wr = now + timing_.rcd;
  b.next_pre = std::max(b.next_pre, now + timing_.ras);
  set_idle_eligible(req.flat_bank,
                    std::max(b.next_pre, bank_last_use_[req.flat_bank] + timing_.idle_precharge));
  b.next_act = now + timing_.rc();
  next_act_rank_[req.coord.rank] = now + timing_.rrd_s;
  next_act_group_[rg] = now + timing_.rrd_l;
  update_act_terms(req.coord.rank);
  ++stats_.activates;
  checker_.on_act(req.coord, now);
  req.needed_act = true;
}

bool Controller::try_issue(std::vector<Request>& queue, bool is_write, Cycle now) {
  const std::uint32_t qi = is_write ? 1 : 0;
  if (queue.empty()) {
    // Mirror what a scan of the empty window would conclude, so
    // compute_wake's cached reuse sees the same bound a cold scan stores.
    queue_ready_[qi] = kNoCycle;
    return false;
  }
  // Fast path: a prior failed scan proved nothing in this queue's window can
  // issue before queue_ready_; any invalidating event (command issued,
  // request enqueued into the window) cleared the cache, so a live bound
  // lets us skip the rescan without changing any decision.
  if (ready_cache_enabled_ && queue_ready_[qi] != 0 && now < queue_ready_[qi]) {
    return false;
  }
  COAXIAL_PROF_SCOPE(kDramTryIssue);
  const Pick pick = scan_window(qi, now);
  if (pick.slot < 0) {
    // A failed scan leaves the queue's bound behind for free, so
    // compute_wake never has to rescan the window.
    queue_ready_[qi] = pick.ready;
    return false;
  }
  const auto i = static_cast<std::uint32_t>(pick.slot);
  const std::uint32_t bank = queue[i].flat_bank;
  if (win_[qi].cls[i] == kRowHit) {
    Request req = queue[i];
    issue_cas(req, is_write, now);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
    erase_slot(qi, i);
    if (is_write) {
      auto it = write_lines_.find(req.local_line);
      if (it != write_lines_.end() && --it->second == 0) write_lines_.erase(it);
    }
  } else {
    commit_prep(queue[i], now);
  }
  rederive_bank(bank);
  note_command();
  return true;
}

}  // namespace coaxial::dram
