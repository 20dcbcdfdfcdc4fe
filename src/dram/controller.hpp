// FR-FCFS memory controller for one DDR5 sub-channel.
//
// Models: separate read/write queues with write-drain watermarks, row-buffer
// management (open-page policy), bank/rank timing constraints (tRCD, tRP,
// tRAS, tCCD_S/L, tRRD_S/L, tFAW, tWR, tRTP, tWTR_S/L, read/write bus
// turnaround), all-bank refresh every tREFI, and write-to-read forwarding.
//
// The controller issues at most one command per cycle (command bus). Reads
// complete at CAS + CL + BL (data fully transferred); writes are posted and
// complete on enqueue from the requester's perspective.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/histogram.hpp"
#include "common/units.hpp"
#include "dram/address_map.hpp"
#include "dram/bank.hpp"
#include "dram/timing.hpp"
#include "dram/timing_check.hpp"
#include "obs/metrics.hpp"

namespace coaxial::dram {

/// A finished read, reported back to the owner of the controller, with
/// its latency decomposed into unloaded service vs queuing (forwarded
/// reads report 1 cycle of service, no queuing).
struct Completion {
  std::uint64_t token = 0;
  Cycle done = 0;
  Cycle service = 0;      ///< Unloaded (row-state-dependent) component.
  Cycle queue_delay = 0;  ///< Everything above the unloaded component.
};

struct ControllerStats {
  std::uint64_t reads_done = 0;
  std::uint64_t writes_done = 0;
  std::uint64_t reads_forwarded = 0;  ///< Served from the write queue.
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;  ///< CAS that needed ACT (bank was closed).
  std::uint64_t row_conflicts = 0;  ///< CAS that needed PRE + ACT.
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t data_bus_busy_cycles = 0;
  double read_queue_delay_sum = 0;   ///< Cycles spent queued, reads.
  double read_service_sum = 0;       ///< Ideal unloaded service component, reads.

  double row_hit_rate() const {
    const double total = static_cast<double>(row_hits + row_misses + row_conflicts);
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / total;
  }
};

class Controller {
 public:
  /// `scope`, when valid, registers this controller's counters, read-latency
  /// histogram, and timing-invariant violation counters into the metrics
  /// registry at construction.
  Controller(const Timing& timing, const Geometry& geometry,
             std::size_t read_queue_depth = 64, std::size_t write_queue_depth = 64,
             obs::Scope scope = {});

  /// True if a read/write can be enqueued this cycle.
  bool can_accept(bool is_write) const;

  /// Enqueue a request. `token` is echoed in the read completion.
  /// Returns false (and does nothing) if the relevant queue is full.
  bool enqueue(Addr local_line, bool is_write, Cycle now, std::uint64_t token);

  /// Advance one cycle: refresh management + at most one command issue.
  /// Returns the earliest future cycle at which the controller could act
  /// again (command issue, refresh deadline, idle-row precharge). The bound
  /// is conservative (never later than the true next action), so callers
  /// may skip ticking until then without changing any decision — the basis
  /// of the event-driven System loop.
  Cycle tick(Cycle now);

  /// Read completions produced since the last drain (in completion order).
  std::vector<Completion>& completions() { return completions_; }

  const ControllerStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; read_hist_.reset(); }

  /// Read latency distribution (arrival to data), for load-latency curves.
  const FixedHistogram& read_latency_hist() const { return read_hist_; }

  /// Shadow timing-invariant checker (tRC/tRCD/tRP/tRAS/tCCD_L/tFAW,
  /// refresh deadlines). Violation counts should always be zero.
  const TimingChecker& timing_checker() const { return checker_; }

  std::size_t read_queue_size() const { return read_q_.size(); }
  std::size_t write_queue_size() const { return write_q_.size(); }
  bool idle() const { return read_q_.empty() && write_q_.empty(); }

  const Timing& timing() const { return timing_; }

  /// Test hook: disable the ready caches and the live scan window so
  /// invariant tests can compare the fast path against a from-scratch
  /// oracle. Off, every tick rescans both windows after re-deriving every
  /// slot from the banks and the queues. Scheduling decisions must be
  /// identical either way.
  void set_ready_cache(bool on) {
    ready_cache_enabled_ = on;
    queue_ready_[0] = queue_ready_[1] = 0;
    wake_cache_ = 0;
    idle_ready_ = 0;
  }

 private:
  struct Request {
    Coord coord;
    Cycle arrival = 0;
    std::uint64_t token = 0;
    Addr local_line = 0;
    std::uint32_t flat_bank = 0;  ///< coord.flat_bank_all(), cached at enqueue.
    std::uint32_t rg = 0;         ///< rank * bank_groups + bank_group, ditto.
    bool needed_act = false;  ///< An ACT was issued on this request's behalf.
    bool needed_pre = false;  ///< A PRE was issued on this request's behalf.
  };

  /// FR-FCFS fairness guard: only the oldest `kScanWindow` entries of a
  /// queue compete for issue, bounding both starvation and per-tick scan
  /// cost.
  static constexpr std::uint32_t kScanWindow = 16;

  /// What a window slot's next command is, given its bank's state.
  enum SlotClass : std::uint8_t {
    kRowHit,      ///< Bank open on this row: CAS.
    kRowOther,    ///< Bank open on another row: PRE.
    kBankClosed,  ///< ACT.
  };

  /// Live struct-of-arrays mirror of one queue's scan window (its oldest
  /// `kScanWindow` requests, slot i = queue index i). The bank-local part
  /// of each slot's next command — its class and that class's earliest
  /// cycle on the bank — is derived when the request enters the window and
  /// re-derived only when a command moves its bank's state; the rank,
  /// group and bus part is looked up in `shared_` by (rank-group, class).
  struct Window {
    Cycle bank_ready[kScanWindow];  ///< Bank-local earliest cycle for `cls`.
    std::uint32_t row[kScanWindow];
    std::uint16_t bank[kScanWindow];  ///< Flat bank across ranks.
    std::uint16_t rg[kScanWindow];    ///< rank * bank_groups + bank_group.
    SlotClass cls[kScanWindow];
    std::uint32_t size = 0;  ///< Occupied slots: min(queue size, kScanWindow).
  };

  /// Outcome of one window scan: the slot to serve now (FR first, then
  /// FCFS), or -1, plus the earliest cycle any slot could issue (slots
  /// suppressed by a pending refresh count as never).
  struct Pick {
    int slot = -1;
    Cycle ready = kNoCycle;
  };

  // Scheduling helpers. Each returns true if a command was issued.
  bool try_refresh(Cycle now);
  bool try_issue(std::vector<Request>& queue, bool is_write, Cycle now);
  void issue_cas(Request& req, bool is_write, Cycle now);
  void commit_prep(Request& req, Cycle now);
  void idle_precharge(Cycle now);
  void set_idle_eligible(std::uint32_t flat_bank, Cycle eligible);

  // The one candidate kernel, shared by issue and wake. Each slot's
  // earliest cycle is max(its bank term, the shared term of its class), a
  // raw max over frozen constraint timestamps (no now+1 floor), so one
  // computation serves both the issue decision (earliest <= now) and, on a
  // failed scan, the wake bound (earliest > now, where the floor is a
  // no-op). Under COAXIAL_NO_READY_CACHE it first re-derives the shared
  // terms and every slot from scratch.
  Pick scan_window(std::uint32_t qi, Cycle now);

  // Live-window maintenance.
  void update_shared_terms();
  void update_cas_terms();
  void update_act_terms(std::uint32_t rank);
  void derive_slot(std::uint32_t qi, std::uint32_t i, const Request& req);
  void classify_slot(std::uint32_t qi, std::uint32_t i);
  void rederive_bank(std::uint32_t flat_bank);
  void rederive_all();
  void rebuild_window(std::uint32_t qi);
  void erase_slot(std::uint32_t qi, std::uint32_t i);

  // Wake-cycle lower bound for the event-driven loop: when could the
  // command that tick() just declined become issueable?
  Cycle compute_wake(Cycle now);

  Timing timing_;
  AddressMap amap_;
  std::size_t read_depth_;
  std::size_t write_depth_;

  std::vector<Bank> banks_;
  std::vector<Cycle> bank_last_use_;  ///< For idle-bank precharge.
  // Exact per-bank idle-precharge eligibility, mirrored incrementally:
  // max(next_pre, last_use + tIdle) while the bank is open, kNoCycle when
  // closed. Updated at the only sites that move a bank's open/next_pre/
  // last_use state (CAS, PRE, ACT, refresh), it turns the idle-precharge
  // scans from a walk over scattered Bank structs into a contiguous min
  // scan. Not a cache: always exact, so both ready-cache modes share it.
  std::vector<Cycle> idle_eligible_;
  std::vector<Request> read_q_;
  std::vector<Request> write_q_;
  Window win_[2] = {};  ///< [0] = read_q_'s window, [1] = write_q_'s.
  std::vector<Completion> completions_;

  // Rank-level constraint state (indexed by rank, or rank*groups+group).
  std::vector<Cycle> next_act_rank_;          ///< tRRD_S from any ACT, per rank.
  std::vector<Cycle> next_act_group_;         ///< tRRD_L within a group.
  std::vector<Cycle> next_cas_rank_;          ///< tCCD_S from any CAS, per rank.
  std::vector<Cycle> next_cas_group_;         ///< tCCD_L within a group.
  Cycle next_rd_bus_ = 0;                     ///< Bus turnaround: earliest read CAS.
  Cycle next_wr_bus_ = 0;                     ///< Bus turnaround: earliest write CAS.
  std::vector<Cycle> next_rd_after_wr_group_; ///< tWTR_L within a group.
  struct FawWindow {
    Cycle acts[4] = {0, 0, 0, 0};
    std::uint32_t pos = 0;
  };
  std::vector<FawWindow> faw_;                ///< tFAW window per rank.
  // The rank, group and bus part of each slot class's earliest cycle, per
  // queue, indexed (rg << 2) | class: the CAS term (tCCD_S/L, tCS, read/
  // write turnaround, tWTR for reads) for kRowHit, the ACT term (tRRD_S/L,
  // tFAW) for kBankClosed, 0 for kRowOther (PRE has no shared term). While
  // a refresh is pending, ACT and PRE are suppressed and their terms are
  // kNoCycle. A pure function of the constraint state above and
  // refresh_pending_, which only issue_cas, an ACT and the two refresh
  // transitions move, so those sites refresh it.
  std::vector<Cycle> shared_[2];
  // Shared data bus: rank switches pay tCS after the previous burst.
  Cycle last_cas_end_ = 0;
  std::uint32_t last_cas_rank_ = 0;

  std::uint32_t open_banks_ = 0;  ///< Fast gate for idle-precharge scans.

  // Per-queue next-ready cache ([0]=read, [1]=write). When a scan of a
  // queue's window issues nothing, it records the earliest cycle any slot
  // could become issueable; until then — as long as no command issues and
  // the window does not change — try_issue skips the scan. A command clears
  // it (note_command), and so does an enqueue that lands inside the window;
  // one that lands beyond it leaves the window, and so the bound, as it
  // was. 0 means "unknown, must scan". Scheduling decisions are unchanged:
  // the cache only elides scans that provably cannot issue.
  Cycle queue_ready_[2] = {0, 0};
  // Whole-tick wake cache: compute_wake's result is a min over *every*
  // action the next tick could take (CAS/ACT/PRE candidates in both scan
  // windows, refresh arming and progress, idle-bank precharge), each a
  // frozen timestamp. While now < wake_cache_ and no command has issued and
  // nothing was enqueued, the full tick body is provably a no-op and would
  // return exactly this bound again (every candidate is a genuine future
  // timestamp, unaffected by the now+1 floor), so tick() returns it
  // directly. Every enqueue clears it: the drain watermarks depend on
  // queue depth. 0 means "invalid, run the full tick".
  Cycle wake_cache_ = 0;
  // Earliest cycle any open bank becomes idle-precharge eligible (raw min
  // over idle_eligible_), or kNoCycle when no bank can. Kept exact through
  // commands by set_idle_eligible(): a bank whose eligibility falls to or
  // below it becomes the new minimum, and only raising the bank that held
  // the minimum makes it unknown again. Enqueues don't affect it. Lets
  // idle_precharge() skip its all-banks scan. 0 means "unknown, must scan".
  Cycle idle_ready_ = 0;
  bool ready_cache_enabled_ = true;
  void note_command() {
    queue_ready_[0] = queue_ready_[1] = 0;
    wake_cache_ = 0;
  }

  /// Lines with a queued write, for O(1) write-to-read forwarding checks
  /// (count, since the queue may briefly hold two writes to one line).
  std::unordered_map<Addr, std::uint32_t> write_lines_;

  // Refresh state.
  Cycle next_refresh_ = 0;
  bool refresh_pending_ = false;

  // Write-drain policy state.
  bool draining_writes_ = false;

  ControllerStats stats_;
  FixedHistogram read_hist_{1, 16384};  ///< Cycle-exact up to ~6.8 us.
  TimingChecker checker_;
};

}  // namespace coaxial::dram
