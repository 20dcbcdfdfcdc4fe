#include "bench_core.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace prof = coaxial::obs::prof;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_percentile(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n > 2 * beyond) {
    const std::size_t idx = n - 1 - beyond;
    t.value = v[idx];
    t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
    t.qualified = true;
  } else {
    t.value = v.back();
    t.percentile = 100.0;
  }
  return t;
}

std::string digest(const std::string& doc) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : doc) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

coaxial::obs::Snapshot model_only(const coaxial::obs::Snapshot& s) {
  coaxial::obs::Snapshot out;
  for (const auto& [k, v] : s) {
    if (k.rfind("host/", 0) != 0) out.emplace(k, v);
  }
  return out;
}

std::uint64_t invariant_violations(const coaxial::obs::Snapshot& s) {
  static const std::string kLeaf = "/invariants/violations";
  std::uint64_t sum = 0;
  for (const auto& [k, v] : s) {
    if (k.size() >= kLeaf.size() &&
        k.compare(k.size() - kLeaf.size(), kLeaf.size(), kLeaf) == 0) {
      sum += static_cast<std::uint64_t>(v.as_double());
    }
  }
  return sum;
}

void OpLedger::set_reference(const std::string& key, const std::string& d) {
  ref_[key] = d;
}

bool OpLedger::record(const std::string& key, const std::string& d,
                      std::uint64_t violations) {
  ++attempted_;
  const auto [it, first] = ref_.emplace(key, d);
  std::string why;
  if (violations != 0) {
    why = key + ": " + std::to_string(violations) + " invariant violation(s)";
  } else if (!first && it->second != d) {
    why = key + ": stats digest " + d + " != reference " + it->second;
  }
  if (why.empty()) return true;
  ++failed_;
  failures_.push_back(why);
  return false;
}

void OpLedger::record_exception(const std::string& what) {
  ++attempted_;
  ++failed_;
  failures_.push_back("threw: " + what);
}

std::vector<std::string> set_knobs(
    const std::function<const char*(const char*)>& getenv) {
  std::vector<std::string> out;
  for (const char* k : kPinnedKnobs) {
    if (getenv(k) != nullptr) out.emplace_back(k);
  }
  return out;
}

namespace {

/// The nesting tree of bench_core.hpp, as parent -> children.
std::vector<prof::Phase> phase_children(prof::Phase p) {
  using P = prof::Phase;
  switch (p) {
    case P::kSchedDispatch: return {P::kEventDrain, P::kMemPump, P::kCoreTick};
    case P::kCoreTick: return {P::kWorkloadGen};
    case P::kMemPump: return {P::kDramTick};
    case P::kDramTick: return {P::kDramTryIssue};
    default: return {};
  }
}

bool in_phase_tree(prof::Phase p) {
  if (!phase_children(p).empty()) return true;
  for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
    for (const prof::Phase c : phase_children(static_cast<prof::Phase>(i))) {
      if (c == p) return true;
    }
  }
  return false;
}

}  // namespace

SelfTimes derive_self(const prof::Totals& t) {
  SelfTimes s;
  for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
    double self = static_cast<double>(t.ns[i]);
    if (t.calls[i] != 0) {
      for (const prof::Phase c : phase_children(static_cast<prof::Phase>(i))) {
        self -= static_cast<double>(t.ns[static_cast<std::size_t>(c)]);
      }
    }
    if (self < 0) {
      s.clamped_ns -= self;
      self = 0;
    }
    s.ns[i] = self;
    if (in_phase_tree(static_cast<prof::Phase>(i))) s.tree_ns += self;
  }
  return s;
}

prof::Totals totals_from_snapshot(const coaxial::obs::Snapshot& s) {
  prof::Totals t;
  for (std::size_t i = 0; i < prof::kPhaseCount; ++i) {
    const std::string base =
        std::string("host/prof/") + prof::phase_name(static_cast<prof::Phase>(i));
    if (const auto it = s.find(base + "/ns"); it != s.end()) {
      t.ns[i] = static_cast<std::uint64_t>(it->second.as_double());
    }
    if (const auto it = s.find(base + "/calls"); it != s.end()) {
      t.calls[i] = static_cast<std::uint64_t>(it->second.as_double());
    }
  }
  return t;
}

SpanRecorder::SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_ns() const {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::uint64_t SpanRecorder::begin(const std::string& name, std::uint64_t parent,
                                  std::uint64_t sim) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.sim = sim;
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::end(std::uint64_t id) {
  Span& s = spans_[id - 1];
  s.dur_ns = now_ns() - s.start_ns;
}

void SpanRecorder::add_duration(const std::string& name, std::uint64_t parent,
                                std::uint64_t sim, double dur_ns) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.sim = sim;
  s.name = name;
  s.start_ns = -1;
  s.dur_ns = dur_ns;
  spans_.push_back(s);
}

std::string SpanRecorder::to_json() const {
  std::ostringstream os;
  os.precision(15);
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n " : "\n ") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"sim\": " << s.sim << ", \"name\": \"" << s.name << "\", \"start_ns\": ";
    if (s.start_ns >= 0) {
      os << s.start_ns;
    } else {
      os << "null";
    }
    os << ", \"dur_ns\": " << s.dur_ns << "}";
  }
  os << "\n]";
  return os.str();
}

}  // namespace perfbench
