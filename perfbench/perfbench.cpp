// The repository benchmark. One invocation runs one workload for a
// fixed host-time budget, as a closed loop of ops (several seeds side by
// side, or one sim::run_many batch for the sweep), checks every
// simulation's stats document, and prints either the end-to-end metrics
// (tracing off) or the per-layer metrics (a separate traced pass plus
// single-layer drives).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. README.md in this directory maps each metric to its layer.
//
//   perfbench --workload <closed-12c|pooled-4h|svc-saturate|sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--source-rev <rev>]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "coaxial/configs.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "layer_drives.hpp"
#include "obs/profiler.hpp"
#include "sim/pooled_system.hpp"
#include "sim/runner.hpp"
#include "sim/service.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace perfbench;
namespace sim = coaxial::sim;
namespace sys = coaxial::sys;
namespace obs = coaxial::obs;
namespace prof = coaxial::obs::prof;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- workloads
//
// Budgets are sized so one simulation (one sweep batch) takes 1.5-3 host
// seconds on a 4-vCPU Xeon VM: long enough that per-op noise is small,
// short enough that a 20-second run repeats each workload several times.

// closed-12c: 12 cores of COAXIAL-4x, two copies of a six-workload mix that
// spans streaming (lbm, bwaves), pointer chasing (mcf, omnetpp), an
// LLC-friendly footprint (canneal) and a write-heavy stream (stream-copy).
// One System seed drives the burst/gap phase sequence every core shares,
// which moves a run's memory traffic (and host time) by about +-15% from
// seed to seed at this budget -- more than the bound. So each op runs
// several seeds drawn from the benchmark seed (see kMaxInputs).
const std::vector<std::string> kClosedMix = {"lbm",     "bwaves",  "mcf",
                                             "omnetpp", "canneal", "stream-copy"};
constexpr std::uint64_t kClosedWarmup = 40'000;
constexpr std::uint64_t kClosedMeasure = 160'000;

// pooled-4h: coaxial_pooled(4) running pool-pingpong on the direct fabric.
// The timed ops run the shard engine on one worker. With min(4, nproc)
// workers every quantum waits at a barrier for the slowest vCPU, and on a
// shared 4-vCPU host under hypervisor steal one run's median swung from
// 1.6 s to 10 s; no bound could hold it. The multi-worker run is still made
// in every invocation: untimed, as the reference the first input's timed
// documents must match, and as the traced pass that measures the barrier.
constexpr std::uint64_t kPooledWarmup = 160'000;
constexpr std::uint64_t kPooledMeasure = 640'000;

// svc-saturate: 12 Poisson tenants offering 0.9 of peak, 30% writes.
constexpr std::uint32_t kSvcTenants = 12;
constexpr double kSvcLoad = 0.9;
constexpr double kSvcWrites = 0.3;
constexpr coaxial::Cycle kSvcWarmup = 100'000;
constexpr coaxial::Cycle kSvcMeasure = 900'000;

// sweep: the figure-bench shape, four configurations x twelve catalog
// workloads at short budgets. Each request gets its own seed derived from
// the benchmark seed: at these budgets one seed's phase sequence swings a
// run's traffic by 2-3x, and 48 independent draws average that out.
const std::vector<std::string> kSweepWorkloads = {
    "lbm",     "bwaves", "mcf",  "omnetpp",  "canneal",       "stream-copy",
    "gcc",     "pagerank", "bfs", "masstree", "streamcluster", "fotonik3d"};
constexpr std::uint64_t kSweepWarmup = 4'000;
constexpr std::uint64_t kSweepMeasure = 16'000;

std::vector<sys::SystemConfig> sweep_configs() {
  return {sys::baseline_ddr(), sys::coaxial_4x(), sys::coaxial_asym(),
          sys::coaxial_tiered()};
}

/// closed-12c, pooled-4h and svc-saturate: inputs (seeds) per invocation,
/// capped by the hardware threads. Untraced ops run one simulation per input at
/// once, one thread each. On a shared VM the speed of one vCPU
/// drifts by 15-30% within minutes, largely independently of the others;
/// a single-thread time inherits all of it, a concurrent op averages it
/// (the sweep, batched the same way, was the steadiest workload).
constexpr unsigned kMaxInputs = 4;
/// Minimum set-up samples behind the setup_s median.
constexpr std::size_t kSetupSamples = 15;
/// Share of --seconds the traced pass spends on simulations; the layer
/// drives (each repeated kDriveRepeats times) take most of the rest.
constexpr double kTracedShare = 0.7;
constexpr int kDriveRepeats = 3;

unsigned hw_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ------------------------------------------------------------ one op

/// One simulation: its host times, its model outcome, and (traced) its
/// profiler totals.
struct SimRun {
  std::string key;  ///< Digest reference key.
  std::uint64_t seed = 0;  ///< Simulation seed.
  double run_s = 0;
  std::string digest;
  std::uint64_t violations = 0;
  prof::Totals prof;
  obs::Snapshot model;
  double instructions = 0;  ///< Retired, warmup + measure, all cores/hosts.
  double accesses = 0;      ///< Memory reads + writes admitted.
  double cycles = 0;        ///< Simulated measurement-window cycles.
  std::uint64_t events = 0, dispatched = 0, skipped = 0;
  double ipc = 0;
};

/// One timed unit of the closed loop: a single simulation, or one sweep
/// batch. wall runs from the first constructor call to the last stats
/// document exported.
struct Op {
  std::uint32_t input = 0;  ///< Which of the invocation's inputs ran.
  double wall_s = 0;
  double setup_s = 0;   ///< Summed time inside system constructors.
  double run_s = 0;     ///< Host seconds in run() (sweep: the batch).
  double export_s = 0;  ///< Snapshot + stats_json.
  std::vector<SimRun> sims;
  std::string batch_digest;  ///< Sweep: digest of the exported batch document.
};

struct Ctx {
  std::string key;  ///< Digest reference key: workload, plus "#input" when several.
  std::uint64_t seed = 1;  ///< Simulation seed of this input.
  SpanRecorder* spans = nullptr;  ///< Non-null in the traced pass.
  std::uint64_t parent_span = 0;
};

/// RAII span: a no-op when the context is untraced.
class SpanScope {
 public:
  SpanScope(const Ctx& c, const std::string& name, std::uint64_t parent, std::uint64_t sim)
      : rec_(c.spans) {
    if (rec_ != nullptr) id_ = rec_->begin(name, parent, sim);
  }
  ~SpanScope() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint64_t id_ = 0;
};

double sum_suffix(const obs::Snapshot& s, const std::string& suffix) {
  double sum = 0;
  for (const auto& [k, v] : s) {
    if (k.size() >= suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += v.as_double();
    }
  }
  return sum;
}

double get(const obs::Snapshot& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second.as_double();
}

/// Fills the digest/model fields from a finished result; `metrics` may
/// carry host/prof (traced), which the digest excludes.
void finish_sim(SimRun& r, sim::RunResult& result) {
  r.model = model_only(result.metrics);
  r.violations = invariant_violations(r.model);
  result.metrics = r.model;
  r.digest = digest(sim::stats_json(result));
}

std::unique_ptr<sim::System> make_closed(std::uint64_t seed) {
  const sys::SystemConfig cfg = sys::coaxial_4x();
  std::vector<coaxial::workload::WorkloadParams> per_core;
  for (std::uint32_t i = 0; i < cfg.uarch.cores; ++i) {
    per_core.push_back(coaxial::workload::find_workload(kClosedMix[i % kClosedMix.size()]));
  }
  return std::make_unique<sim::System>(cfg, per_core, seed);
}

/// Constructor start, run start, run end, export end.
void set_times(Op& op, Clock::time_point t0, Clock::time_point t1, Clock::time_point t2,
               Clock::time_point t3) {
  op.wall_s = secs(t0, t3);
  op.setup_s = secs(t0, t1);
  op.run_s = secs(t1, t2);
  op.export_s = secs(t2, t3);
}

Op op_closed(const Ctx& c) {
  Op op;
  SimRun r;
  r.key = c.key;
  r.seed = c.seed;
  const std::uint64_t sim_id = c.spans ? c.spans->next_sim() : 0;
  SpanScope sim_span(c, "simulation", c.parent_span, sim_id);
  const auto t0 = Clock::now();
  std::unique_ptr<sim::System> system;
  {
    SpanScope s(c, "setup", sim_span.id(), sim_id);
    system = make_closed(c.seed);
  }
  const auto t1 = Clock::now();
  const prof::Totals base = prof::thread_totals();
  {
    SpanScope s(c, "run", sim_span.id(), sim_id);
    system->run(kClosedWarmup, kClosedMeasure);
  }
  const auto t2 = Clock::now();
  r.prof = prof::thread_totals().delta_since(base);
  {
    SpanScope s(c, "export", sim_span.id(), sim_id);
    sim::RunResult result;
    result.config_name = system->config().name;
    result.workload_name = "mix-0";
    result.seed = c.seed;
    result.warmup_instr = kClosedWarmup;
    result.measure_instr = kClosedMeasure;
    result.stats = system->stats();
    result.metrics = system->metrics().snapshot();
    finish_sim(r, result);
  }
  const auto t3 = Clock::now();
  const sim::RunStats& st = system->stats();
  const std::uint32_t cores = system->config().uarch.active_cores;
  r.instructions = static_cast<double>(st.instructions) + double(cores) * kClosedWarmup;
  r.accesses = get(r.model, "mem/reads") + get(r.model, "mem/writes");
  r.cycles = static_cast<double>(st.cycles);
  r.events = st.sched_events;
  r.dispatched = st.sched_cycles_dispatched;
  r.skipped = st.sched_cycles_skipped;
  r.ipc = st.ipc_per_core;
  r.run_s = secs(t1, t2);
  set_times(op, t0, t1, t2, t3);
  op.sims.push_back(std::move(r));
  return op;
}

std::unique_ptr<sim::PooledSystem> make_pooled(std::uint64_t seed, std::uint32_t workers) {
  auto system = std::make_unique<sim::PooledSystem>(sys::coaxial_pooled(4), seed);
  system->set_workers(workers);
  return system;
}

Op op_pooled(const Ctx& c, std::uint32_t workers) {
  Op op;
  SimRun r;
  r.key = c.key;
  r.seed = c.seed;
  const std::uint64_t sim_id = c.spans ? c.spans->next_sim() : 0;
  SpanScope sim_span(c, "simulation", c.parent_span, sim_id);
  const auto t0 = Clock::now();
  std::unique_ptr<sim::PooledSystem> system;
  {
    SpanScope s(c, "setup", sim_span.id(), sim_id);
    system = make_pooled(c.seed, workers);
  }
  const auto t1 = Clock::now();
  const prof::Totals base = prof::thread_totals();
  sim::PooledStats st;
  {
    SpanScope s(c, "run", sim_span.id(), sim_id);
    st = system->run(kPooledWarmup, kPooledMeasure);
  }
  const auto t2 = Clock::now();
  r.prof = prof::thread_totals().delta_since(base);
  r.prof.add(system->worker_prof_totals());
  {
    SpanScope s(c, "export", sim_span.id(), sim_id);
    sim::RunResult result;
    result.config_name = system->config().name;
    result.workload_name = system->config().workload;
    result.seed = c.seed;
    result.warmup_instr = kPooledWarmup;
    result.measure_instr = kPooledMeasure;
    result.pooled = st;
    result.metrics = system->metrics().snapshot();
    finish_sim(r, result);
  }
  const auto t3 = Clock::now();
  r.instructions = sum_suffix(r.model, "/instructions");
  for (const char* k : {"private_reads", "private_writes", "shared_reads", "shared_writes"}) {
    r.accesses += get(r.model, std::string("pool/admitted/") + k);
  }
  r.cycles = static_cast<double>(st.window_cycles);
  r.ipc = st.ipc_mean;
  r.run_s = secs(t1, t2);
  set_times(op, t0, t1, t2, t3);
  op.sims.push_back(std::move(r));
  return op;
}

sim::ServiceConfig svc_config() {
  sim::ServiceConfig svc;
  svc.name = "svc-saturate";
  svc.warmup_cycles = kSvcWarmup;
  svc.measure_cycles = kSvcMeasure;
  for (std::uint32_t i = 0; i < kSvcTenants; ++i) {
    sim::ServiceTenant t;
    t.arrival.process = coaxial::workload::ArrivalProcessKind::kPoisson;
    t.arrival.offered_load = kSvcLoad / kSvcTenants;
    t.arrival.write_fraction = kSvcWrites;
    svc.tenants.push_back(t);
  }
  return svc;
}

std::unique_ptr<sim::ServiceDriver> make_svc(std::uint64_t seed) {
  return std::make_unique<sim::ServiceDriver>(sys::coaxial_4x(), svc_config(), seed);
}

Op op_svc(const Ctx& c) {
  Op op;
  SimRun r;
  r.key = c.key;
  r.seed = c.seed;
  const std::uint64_t sim_id = c.spans ? c.spans->next_sim() : 0;
  SpanScope sim_span(c, "simulation", c.parent_span, sim_id);
  const auto t0 = Clock::now();
  std::unique_ptr<sim::ServiceDriver> service;
  {
    SpanScope s(c, "setup", sim_span.id(), sim_id);
    service = make_svc(c.seed);
  }
  const auto t1 = Clock::now();
  const prof::Totals base = prof::thread_totals();
  {
    SpanScope s(c, "run", sim_span.id(), sim_id);
    service->run();
  }
  const auto t2 = Clock::now();
  r.prof = prof::thread_totals().delta_since(base);
  {
    SpanScope s(c, "export", sim_span.id(), sim_id);
    const sim::ServiceConfig& svc = service->service_config();
    sim::RunResult result;
    result.config_name = service->config().name;
    result.workload_name = svc.name;
    result.seed = c.seed;
    result.open_loop = true;
    result.warmup_cycles = svc.warmup_cycles;
    result.measure_cycles = svc.measure_cycles;
    result.service = service->stats();
    result.slo = service->slo_checks();
    result.metrics = service->metrics().snapshot();
    finish_sim(r, result);
  }
  const auto t3 = Clock::now();
  r.accesses = get(r.model, "mem/reads") + get(r.model, "mem/writes");
  r.cycles = static_cast<double>(service->stats().cycles);
  r.run_s = secs(t1, t2);
  set_times(op, t0, t1, t2, t3);
  op.sims.push_back(std::move(r));
  return op;
}

std::vector<sim::RunRequest> sweep_requests(std::uint64_t seed) {
  std::vector<sim::RunRequest> reqs;
  coaxial::Rng rng(seed);
  for (const sys::SystemConfig& cfg : sweep_configs()) {
    for (const std::string& w : kSweepWorkloads) {
      reqs.push_back(sim::homogeneous(cfg, w, kSweepWarmup, kSweepMeasure, rng.next_u64()));
    }
  }
  return reqs;
}

/// run_many builds each System inside its worker, out of the bench's
/// sight; the sweep's set-up metric constructs the same systems here, one
/// after another, and sums the constructor time.
double sweep_setup(const std::vector<sim::RunRequest>& reqs) {
  double total = 0;
  for (const sim::RunRequest& q : reqs) {
    const auto a = Clock::now();
    std::vector<coaxial::workload::WorkloadParams> per_core(
        q.config.uarch.cores, coaxial::workload::find_workload(q.workloads.front()));
    sim::System system(q.config, per_core, q.seed);
    total += secs(a, Clock::now());
  }
  return total;
}

Op op_sweep(const Ctx& c) {
  Op op;
  const std::vector<sim::RunRequest> reqs = sweep_requests(c.seed);
  const std::uint64_t batch_sim = c.spans ? c.spans->next_sim() : 0;
  SpanScope batch(c, "batch", c.parent_span, batch_sim);
  {
    SpanScope s(c, "setup", batch.id(), batch_sim);
    op.setup_s = sweep_setup(reqs);
  }
  const auto t0 = Clock::now();
  std::vector<sim::RunResult> results;
  {
    SpanScope s(c, "run_many", batch.id(), batch_sim);
    results = sim::run_many(reqs, hw_threads());
  }
  const auto t1 = Clock::now();
  {
    SpanScope s(c, "export", batch.id(), batch_sim);
    for (std::size_t i = 0; i < results.size(); ++i) {
      sim::RunResult& res = results[i];
      SimRun r;
      r.key = res.config_name + "." + res.workload_name;
      r.seed = res.seed;
      r.run_s = res.host_seconds;
      r.prof = totals_from_snapshot(res.metrics);
      finish_sim(r, res);
      const sim::RunStats& st = res.stats;
      r.instructions = static_cast<double>(st.instructions) +
                       double(reqs[i].config.uarch.active_cores) * kSweepWarmup;
      r.accesses = get(r.model, "mem/reads") + get(r.model, "mem/writes");
      r.cycles = static_cast<double>(st.cycles);
      r.events = st.sched_events;
      r.dispatched = st.sched_cycles_dispatched;
      r.skipped = st.sched_cycles_skipped;
      r.ipc = st.ipc_per_core;
      if (c.spans) {
        c.spans->add_duration("simulation", batch.id(), c.spans->next_sim(), r.run_s * 1e9);
      }
      op.sims.push_back(std::move(r));
    }
    op.batch_digest = digest(sim::stats_json(results));
  }
  const auto t2 = Clock::now();
  op.run_s = secs(t0, t1);
  op.export_s = secs(t1, t2);
  op.wall_s = secs(t0, t2);
  return op;
}

// ---------------------------------------------------------- provenance

std::string read_first_line(const char* path, const char* prefix = nullptr) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (prefix == nullptr) return line;
    if (line.rfind(prefix, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string loadavg() {
  std::string l = read_first_line("/proc/loadavg");
  const auto sp = l.find(' ', l.find(' ', l.find(' ') + 1) + 1);
  return l.substr(0, sp);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, const OpLedger& ledger, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << ledger.attempted() << ", \"failed\": " << ledger.failed()
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

// ----------------------------------------------------------------- bench

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  std::string source_rev = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else if (k == "--source-rev") {
      a.source_rev = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

class Bench {
 public:
  explicit Bench(const Args& a) : args_(a) {
    const auto timed = [](auto&& make) {
      const auto t0 = Clock::now();
      (void)make();
      return secs(t0, Clock::now());
    };
    if (a.workload == "sweep") {
      seeds_ = {a.seed};
      op_ = op_sweep;
      setup_ = [=] { return sweep_setup(sweep_requests(a.seed)); };
      return;
    }
    coaxial::Rng rng(a.seed);
    for (unsigned i = 0; i < std::min(kMaxInputs, hw_threads()); ++i) {
      seeds_.push_back(rng.next_u64());
    }
    concurrent_ = !a.trace && seeds_.size() > 1;
    std::function<double(std::uint64_t)> build;
    if (a.workload == "closed-12c") {
      op_ = op_closed;
      build = [=](std::uint64_t s) { return timed([&] { return make_closed(s); }); };
    } else if (a.workload == "pooled-4h") {
      const std::uint32_t multi = std::min(4u, hw_threads());
      const std::uint32_t timed_workers = a.trace ? multi : 1;
      ref_workers_ = a.trace ? 1 : multi;
      run_threads_ = timed_workers;
      op_ = [=](const Ctx& c) { return op_pooled(c, timed_workers); };
      build = [=](std::uint64_t s) {
        return timed([&] { return make_pooled(s, timed_workers); });
      };
    } else if (a.workload == "svc-saturate") {
      op_ = op_svc;
      build = [=](std::uint64_t s) { return timed([&] { return make_svc(s); }); };
    } else {
      throw std::invalid_argument("unknown workload " + a.workload);
    }
    // One op's set-up: every input's system, built one after another.
    setup_ = [build, seeds = seeds_] {
      double total = 0;
      for (const std::uint64_t s : seeds) total += build(s);
      return total;
    };
  }

  std::uint32_t inputs() const { return static_cast<std::uint32_t>(seeds_.size()); }

  /// Pins references that come from outside the timed loop: the pooled
  /// run's document at the other worker count, for the first input
  /// (computed once, untimed; the other inputs are checked by repeats).
  void pin_references() {
    if (ref_workers_ == 0) return;
    const Op ref = op_pooled(ctx(nullptr, 0), ref_workers_);
    ref_digest_ = ref.sims.front().digest;
    ledger_.set_reference(ref.sims.front().key, ref_digest_);
  }

  /// Runs one op on `input` and books every simulation in it. Returns
  /// false when the op threw (no samples then).
  bool run_op(std::uint32_t input, SpanRecorder* spans, std::vector<Op>& out) {
    try {
      Op op = op_(ctx(spans, input));
      op.input = input;
      for (const SimRun& r : op.sims) ledger_.record(r.key, r.digest, r.violations);
      out.push_back(std::move(op));
      return true;
    } catch (const std::exception& e) {
      ledger_.record_exception(e.what());
      return false;
    }
  }

  /// Runs every input at once, one thread each, and books the merged op:
  /// wall from the first constructor call to the last export, set-up summed,
  /// run() time of the slowest input.
  bool run_concurrent(std::vector<Op>& out) {
    std::vector<Op> parts(inputs());
    std::vector<std::exception_ptr> errors(inputs());
    const auto t0 = Clock::now();
    {
      std::vector<std::thread> threads;
      for (std::uint32_t i = 0; i < inputs(); ++i) {
        threads.emplace_back([&, i] {
          try {
            parts[i] = op_(ctx(nullptr, i));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    Op op;
    op.wall_s = secs(t0, Clock::now());
    bool ok = true;
    for (std::uint32_t i = 0; i < inputs(); ++i) {
      if (errors[i]) {
        try {
          std::rethrow_exception(errors[i]);
        } catch (const std::exception& e) {
          ledger_.record_exception(e.what());
        }
        ok = false;
        continue;
      }
      op.setup_s += parts[i].setup_s;
      op.run_s = std::max(op.run_s, parts[i].run_s);
      op.export_s = std::max(op.export_s, parts[i].export_s);
      for (SimRun& r : parts[i].sims) {
        ledger_.record(r.key, r.digest, r.violations);
        op.sims.push_back(std::move(r));
      }
    }
    if (ok) out.push_back(std::move(op));
    return ok;
  }

  /// Closed loop: each op is every input at once (concurrent) or the next
  /// input in turn, with at least two ops per input (repeats are what the
  /// digest check compares) and at least three in all. After those, an op
  /// starts only if one more of the last op's length still fits in the
  /// budget.
  std::vector<Op> loop(double seconds) {
    std::vector<Op> ops;
    const std::size_t per_op = concurrent_ ? inputs() : 1;
    const std::size_t min_ops = std::max<std::size_t>(3, 2 * inputs() / per_op);
    const auto start = Clock::now();
    double last = 0;
    for (std::size_t tries = 0;
         tries < min_ops || secs(start, Clock::now()) + last <= seconds; ++tries) {
      const auto t0 = Clock::now();
      const bool ok = concurrent_
                          ? run_concurrent(ops)
                          : run_op(static_cast<std::uint32_t>(tries % inputs()), nullptr, ops);
      if (!ok && tries >= min_ops) break;
      last = secs(t0, Clock::now());
    }
    return ops;
  }

  int untraced();
  int traced();

  OpLedger ledger_;

 private:
  Ctx ctx(SpanRecorder* spans, std::uint32_t input) const {
    Ctx c;
    c.key = inputs() > 1 ? args_.workload + "#" + std::to_string(input) : args_.workload;
    c.seed = seeds_[input];
    c.spans = spans;
    c.parent_span = workload_span_;
    return c;
  }

  void print_provenance(const std::string& load_start) const;
  void print_model(const std::vector<Op>& ops) const;

  Args args_;
  std::vector<std::uint64_t> seeds_;  ///< Simulation seed per input.
  std::uint32_t run_threads_ = 1;     ///< Threads inside one run().
  std::uint32_t ref_workers_ = 0;     ///< Pooled: worker count of the reference.
  bool concurrent_ = false;           ///< Untraced ops run every input at once.
  std::function<Op(const Ctx&)> op_;
  std::function<double()> setup_;  ///< Times one set-up alone.
  std::string ref_digest_;
  std::uint64_t workload_span_ = 0;
  std::string load_start_ = loadavg();
};

void Bench::print_provenance(const std::string& load_start) const {
  std::printf("[provenance] hw_threads=%u cpu=\"%s\" compiler=\"%s\" flags=\"%s\" "
              "build=%s rev=%s load_start=\"%s\" load_end=\"%s\"\n",
              hw_threads(), read_first_line("/proc/cpuinfo", "model name").c_str(),
              PERFBENCH_COMPILER, PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE,
              args_.source_rev.c_str(), load_start.c_str(), loadavg().c_str());
}

/// Exact model counts and the document digest per simulation key, so two
/// commits can be compared for model identity.
void Bench::print_model(const std::vector<Op>& ops) const {
  if (!ref_digest_.empty()) {
    std::printf("[model] %u-worker reference digest=%s (timed ops: %u)\n", ref_workers_,
                ref_digest_.c_str(), run_threads_);
  }
  if (!ops.empty() && !ops.front().batch_digest.empty()) {
    std::printf("[model] batch document digest=%s\n", ops.front().batch_digest.c_str());
  }
  std::map<std::string, bool> printed;
  for (const Op& op : ops) {
    for (const SimRun& r : op.sims) {
      if (printed[r.key]) continue;
      printed[r.key] = true;
      std::printf("[model] %s seed=%llu digest=%s instructions=%.0f accesses=%.0f "
                  "cycles=%.0f ipc=%.6f\n",
                  r.key.c_str(), static_cast<unsigned long long>(r.seed),
                  r.digest.c_str(), r.instructions, r.accesses, r.cycles, r.ipc);
    }
  }
}

struct OpTotals {
  double instructions = 0, accesses = 0;
  std::uint64_t events = 0, dispatched = 0, skipped = 0;
  double sim_run_s = 0;  ///< Summed per-simulation run() seconds.
};

OpTotals op_totals(const Op& op) {
  OpTotals t;
  for (const SimRun& r : op.sims) {
    t.instructions += r.instructions;
    t.accesses += r.accesses;
    t.events += r.events;
    t.dispatched += r.dispatched;
    t.skipped += r.skipped;
    t.sim_run_s += r.run_s;
  }
  return t;
}

/// The median of f over each input's ops, averaged over the inputs (with
/// one input: the plain median).
template <typename F>
double med(const std::vector<Op>& ops, F&& f) {
  std::map<std::uint32_t, std::vector<double>> by_input;
  for (const Op& op : ops) by_input[op.input].push_back(f(op));
  double sum = 0;
  for (const auto& [input, v] : by_input) sum += median(v);
  return by_input.empty() ? 0.0 : sum / static_cast<double>(by_input.size());
}

int Bench::untraced() {
  pin_references();
  const std::vector<Op> ops = loop(args_.seconds);
  if (ops.empty()) return 1;

  std::vector<double> per_sim;
  for (const Op& op : ops) {
    for (const SimRun& r : op.sims) per_sim.push_back(r.run_s);
  }
  const Tail tail = tail_percentile(per_sim);
  // Set-up is short next to a run, so it gets extra set-up-only samples.
  // Concurrent ops build their systems side by side, so only the
  // one-after-another set-ups count there.
  std::vector<double> setups;
  if (!concurrent_) {
    for (const Op& op : ops) setups.push_back(op.setup_s);
  }
  while (setups.size() < kSetupSamples) setups.push_back(setup_());
  const std::vector<Metric> ms = {
      {"wall_s", med(ops, [](const Op& o) { return o.wall_s; }), "s"},
      {"setup_s", median(setups), "s"},
      {"mem_kreqs_per_s",
       med(ops, [](const Op& o) { return op_totals(o).accesses / o.run_s / 1e3; }),
       "kreq/s"},
      {"run_p50_s", median(per_sim), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const double kips =
      med(ops, [](const Op& o) { return op_totals(o).instructions / o.run_s / 1e3; });

  print_provenance(load_start_);
  print_model(ops);
  std::printf("[e2e] workload=%s seed=%llu ops=%zu tracing=off\n", args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), ops.size());
  for (const Metric& m : ms) {
    std::printf("[e2e] %-18s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (kips > 0) {
    std::printf("[e2e] %-18s %14.6f %s (not gated)\n", "sim_kips", kips, "kinstr/s");
  } else {
    std::printf("[e2e] %-18s %14s (no instructions retired by this workload)\n",
                "sim_kips", "-");
  }
  std::printf("[e2e] op wall_s samples:");
  for (const Op& op : ops) std::printf(" %.4f", op.wall_s);
  std::printf("\n");
  std::printf("[e2e] %-18s %14.6f %s (not gated: p%.1f over %zu simulations%s)\n",
              "run_tail_s", tail.value, "s", tail.percentile, tail.samples,
              tail.qualified ? "" : ", fewer than 21: the maximum");
  std::printf("[e2e] ops_failed=%llu of ops=%llu\n",
              static_cast<unsigned long long>(ledger_.failed()),
              static_cast<unsigned long long>(ledger_.attempted()));
  for (const std::string& f : ledger_.failures()) std::printf("[fail] %s\n", f.c_str());
  print_result(ledger_.failed() == 0, ledger_, ms);
  return 0;
}

int Bench::traced() {
  pin_references();
  SpanRecorder spans;
  std::vector<Op> plain, traced;
  const auto start = Clock::now();
  const std::uint64_t wl = spans.begin(args_.workload, 0, 0);
  workload_span_ = wl;
  // Alternate untraced and traced simulations so both see the same host
  // conditions; the profiler is switched only through set_enabled.
  std::uint32_t input = 0;
  double last = 0;
  do {
    const auto t0 = Clock::now();
    run_op(input, nullptr, plain);
    prof::set_enabled(true);
    run_op(input, &spans, traced);
    prof::set_enabled(false);
    input = (input + 1) % inputs();
    last = secs(t0, Clock::now());
  } while (secs(start, Clock::now()) + last <= args_.seconds * kTracedShare);
  spans.end(wl);
  const LayerDrives drives = run_layer_drives(args_.seed, kDriveRepeats);
  if (plain.empty() || traced.empty()) return 1;

  // Per-layer numbers come from the median traced op (by run time).
  std::vector<const Op*> by_run;
  for (const Op& op : traced) by_run.push_back(&op);
  std::sort(by_run.begin(), by_run.end(),
            [](const Op* a, const Op* b) { return a->run_s < b->run_s; });
  const Op& tr = *by_run[by_run.size() / 2];

  prof::Totals pt;
  obs::Snapshot model;  // Counts summed over the op's simulations.
  for (const SimRun& r : tr.sims) {
    pt.add(r.prof);
    for (const auto& [k, v] : r.model) {
      obs::MetricValue& m = model[k];
      m.value = m.as_double() + v.as_double();
      m.integral = false;
    }
  }
  const OpTotals tt = op_totals(tr);
  const SelfTimes self = derive_self(pt);
  const auto ns = [&](prof::Phase p) { return double(pt.ns[std::size_t(p)]); };
  const auto calls = [&](prof::Phase p) { return double(pt.calls[std::size_t(p)]); };
  const auto self_ms = [&](prof::Phase p) { return self.ns[std::size_t(p)] / 1e6; };
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  using P = prof::Phase;

  const double plain_run = med(plain, [](const Op& o) { return o.run_s; });
  const double traced_run = med(traced, [](const Op& o) { return o.run_s; });
  const OpTotals pl = op_totals(plain.front());
  const double dram_acc =
      sum_suffix(model, "/reads_done") + sum_suffix(model, "/writes_done");
  const double dram_rows = sum_suffix(model, "/row_hits") + sum_suffix(model, "/row_misses") +
                           sum_suffix(model, "/row_conflicts");
  const double link_msgs = sum_suffix(model, "/tx/messages") + sum_suffix(model, "/rx/messages");
  const double link_qd =
      sum_suffix(model, "/tx/queue_delay_sum") + sum_suffix(model, "/rx/queue_delay_sum");
  const double llc_h = get(model, "run/llc/hits"), llc_m = get(model, "run/llc/misses");
  const double l2_ops = get(model, "run/l2_miss/ops");
  const double quanta = calls(P::kShardDrain);
  const double pump = ns(P::kShardPump), barrier = ns(P::kShardBarrier);
  const double gen = get(model, "svc/all/generated");
  double ipc = 0;
  for (const SimRun& r : tr.sims) ipc += r.ipc / double(tr.sims.size());
  const double threads = args_.workload == "sweep" ? hw_threads() : 1.0;

  const std::vector<Metric> ms = {
      {"workload.gen_ms", ns(P::kWorkloadGen) / 1e6, "ms"},
      {"workload.instructions", tt.instructions, "count"},
      {"workload.gen_ns_per_instr", ratio(ns(P::kWorkloadGen), tt.instructions), "ns"},
      {"workload.drive_ns_per_instr", drives.workload_ns_per_instr, "ns"},
      {"core.tick_self_ms", self_ms(P::kCoreTick), "ms"},
      {"core.ipc_mean", ipc, "instr/cycle"},
      {"cache.access_ms", ns(P::kCacheAccess) / 1e6, "ms"},
      {"cache.mshr_ms", ns(P::kMshr) / 1e6, "ms"},
      {"cache.l2_miss_ops", l2_ops, "count"},
      {"cache.llc_miss_ratio", ratio(llc_m, llc_h + llc_m), "ratio"},
      {"cache.drive_ns_per_access", drives.cache_ns_per_access, "ns"},
      {"noc.onchip_ns_avg",
       ratio(get(model, "run/l2_miss/lat_onchip_sum"), l2_ops) * coaxial::kNsPerCycle, "ns"},
      {"dram.tick_self_ms", self_ms(P::kDramTick), "ms"},
      {"dram.try_issue_ms", ns(P::kDramTryIssue) / 1e6, "ms"},
      {"dram.try_issue_calls", calls(P::kDramTryIssue), "count"},
      {"dram.accesses", dram_acc, "count"},
      {"dram.row_hit_rate", ratio(sum_suffix(model, "/row_hits"), dram_rows), "ratio"},
      {"dram.queue_ns_avg",
       ratio(sum_suffix(model, "/read_queue_delay_sum"), sum_suffix(model, "/reads_done")) *
           coaxial::kNsPerCycle,
       "ns"},
      {"dram.scan_yield", ratio(dram_acc, calls(P::kDramTryIssue)), "ratio"},
      {"dram.drive_ns_per_access", drives.dram_ns_per_access, "ns"},
      {"link.serialize_ms", ns(P::kLinkSerialize) / 1e6, "ms"},
      {"link.messages", link_msgs, "count"},
      {"link.queue_delay_avg", ratio(link_qd, link_msgs), "cycles"},
      {"fabric.arb_ms", ns(P::kFabricArb) / 1e6, "ms"},
      {"placement.jobs_started", get(model, "tier/jobs_started"), "count"},
      {"placement.migration_bytes", get(model, "tier/migration_bytes"), "bytes"},
      {"pool.txns", get(model, "pool/coh/txns"), "count"},
      {"pool.invals_sent", get(model, "pool/coh/invals_sent"), "count"},
      {"pool.dir_evictions", get(model, "pool/dir/evictions"), "count"},
      {"pool.shared_reads", get(model, "pool/admitted/shared_reads"), "count"},
      {"pool.drive_ns_per_access", drives.pool_ns_per_access, "ns"},
      {"sim.sched_dispatch_self_ms", self_ms(P::kSchedDispatch), "ms"},
      {"sim.event_drain_ms", ns(P::kEventDrain) / 1e6, "ms"},
      {"sim.mem_pump_self_ms", self_ms(P::kMemPump), "ms"},
      {"sim.events", double(tt.events), "count"},
      {"sim.skip_ratio", ratio(double(tt.skipped), double(tt.skipped + tt.dispatched)), "ratio"},
      {"sim.host_ns_per_event", ratio(pl.sim_run_s * 1e9, double(pl.events)), "ns"},
      {"sim.shard_pump_ms", pump / 1e6, "ms"},
      {"sim.shard_barrier_ms", barrier / 1e6, "ms"},
      {"sim.shard_drain_ms", ns(P::kShardDrain) / 1e6, "ms"},
      {"sim.shard_quanta", quanta, "count"},
      {"sim.shard_barrier_us_per_quantum", ratio(barrier / 1e3, quanta), "us"},
      {"sim.shard_busy_ratio", ratio(pump, pump + barrier), "ratio"},
      {"sim.svc_generated", gen, "count"},
      {"sim.svc_admit_ratio", ratio(get(model, "svc/all/admitted"), gen), "ratio"},
      {"sim.svc_backlog_at_end", get(model, "svc/all/backlog_at_end"), "count"},
      {"sim.svc_bp_stall_cycles", get(model, "svc/all/bp_stall_cycles"), "cycles"},
      {"sim.setup_ms", med(plain, [](const Op& o) { return o.setup_s; }) * 1e3, "ms"},
      {"sim.batch_efficiency",
       args_.workload == "sweep"
           ? med(plain, [&](const Op& o) { return op_totals(o).sim_run_s / (o.run_s * threads); })
           : 0.0,
       "ratio"},
      {"obs.export_ms", med(plain, [](const Op& o) { return o.export_s; }) * 1e3, "ms"},
      {"obs.trace_overhead", traced_run / plain_run - 1.0, "ratio"},
  };

  // Self-time sanity: never negative (by construction), and the phase tree
  // fits inside the traced run's thread time (pooled shards tick DRAM on
  // every worker; sweep runs are summed).
  const double budget_ns =
      (args_.workload == "sweep" ? tt.sim_run_s : tr.run_s * run_threads_) * 1e9;
  const bool self_ok = self.tree_ns - self.clamped_ns <= budget_ns;

  print_provenance(load_start_);
  print_model(plain);
  std::printf("[layer] workload=%s seed=%llu traced_ops=%zu untraced_ops=%zu\n",
              args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
              traced.size(), plain.size());
  for (const Metric& m : ms) {
    std::printf("[layer] %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("[layer] self-time tree %.3f ms (clamped %.3f ms) within traced run %.3f ms: %s\n",
              self.tree_ns / 1e6, self.clamped_ns / 1e6, budget_ns / 1e6,
              self_ok ? "ok" : "FAIL");
  std::printf("[layer] ops_failed=%llu of ops=%llu\n",
              static_cast<unsigned long long>(ledger_.failed()),
              static_cast<unsigned long long>(ledger_.attempted()));
  for (const std::string& f : ledger_.failures()) std::printf("[fail] %s\n", f.c_str());

  if (!args_.trace_file.empty()) {
    std::ofstream f(args_.trace_file);
    f << "{\"workload\": \"" << args_.workload << "\", \"seed\": " << args_.seed
      << ",\n\"spans\": " << spans.to_json() << ",\n\"phases\": {";
    for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
      f << (i ? ", " : "") << "\"" << prof::phase_name(static_cast<P>(i)) << "\": {\"ns\": "
        << pt.ns[i] << ", \"calls\": " << pt.calls[i] << ", \"self_ns\": "
        << json_number(self.ns[i]) << "}";
    }
    f << "}}\n";
    std::printf("[layer] spans and phase totals written to %s\n", args_.trace_file.c_str());
  }
  print_result(ledger_.failed() == 0 && self_ok, ledger_, ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> knobs = set_knobs([](const char* k) { return std::getenv(k); });
  if (!knobs.empty()) {
    for (const std::string& k : knobs) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", k.c_str());
    }
    return 2;
  }
  try {
    const Args args = parse(argc, argv);
    prof::set_enabled(false);
    Bench bench(args);
    return args.trace ? bench.traced() : bench.untraced();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
