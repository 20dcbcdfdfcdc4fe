// Unit tests for the observability layer: the metrics registry, the
// canonical JSON writer/parser, and the statdiff comparison logic.
#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/statdiff.hpp"
#include "obs/stats_json.hpp"

namespace coaxial::obs {
namespace {

// ----------------------------------------------------------------- registry

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a/b/reads");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  Gauge& g = reg.gauge("a/b/sum");
  g.add(1.5);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  c.reset();
  g.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, ReRequestingSamePathReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, CrossKindDuplicateThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  FixedHistogram h;
  EXPECT_THROW(reg.expose_histogram("x", h), std::invalid_argument);
  EXPECT_THROW(reg.expose("x", [] { return 0.0; }), std::invalid_argument);
}

TEST(Metrics, ProbesAreSampledAtSnapshotTime) {
  MetricsRegistry reg;
  std::uint64_t n = 1;
  reg.expose_counter("live", [&n] { return n; });
  EXPECT_EQ(reg.snapshot().at("live").count, 1u);
  n = 42;
  EXPECT_EQ(reg.snapshot().at("live").count, 42u);
}

TEST(Metrics, SnapshotIsLexicographicallyOrderedAndTyped) {
  MetricsRegistry reg;
  reg.counter("b/count").inc(7);
  reg.gauge("a/ratio").set(0.25);
  reg.expose("c/probe", [] { return 1.25; });
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.size(), 3u);
  auto it = s.begin();
  EXPECT_EQ(it->first, "a/ratio");
  EXPECT_FALSE(it->second.integral);
  EXPECT_DOUBLE_EQ(it->second.value, 0.25);
  ++it;
  EXPECT_EQ(it->first, "b/count");
  EXPECT_TRUE(it->second.integral);
  EXPECT_EQ(it->second.count, 7u);
  ++it;
  EXPECT_EQ(it->first, "c/probe");
}

TEST(Metrics, HistogramFlattensToSummaryLeaves) {
  MetricsRegistry reg;
  FixedHistogram h(1, 16384);
  reg.expose_histogram("lat", h);
  for (std::uint64_t i = 1; i <= 100; ++i) h.add(i);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.at("lat/count").count, 100u);
  EXPECT_NEAR(s.at("lat/mean").value, 50.5, 1.0);
  EXPECT_TRUE(s.at("lat/p50").integral);
  EXPECT_GE(s.at("lat/p99").count, s.at("lat/p50").count);
  // One leaf set for every histogram: count/mean/p50/p90/p99/p999/max.
  EXPECT_EQ(s.size(), 7u);
  EXPECT_EQ(s.at("lat/max").count, 100u);
  EXPECT_LE(s.at("lat/p999").count, s.at("lat/max").count);
}

TEST(Metrics, ExposedHistogramViewTracksOwner) {
  MetricsRegistry reg;
  FixedHistogram h;
  reg.expose_histogram("view", h);
  EXPECT_EQ(reg.snapshot().at("view/count").count, 0u);
  h.add(5);
  h.add(9);
  EXPECT_EQ(reg.snapshot().at("view/count").count, 2u);
}

TEST(Metrics, DefaultScopeIsInert) {
  Scope s;
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(s.counter("x"), nullptr);
  EXPECT_EQ(s.gauge("x"), nullptr);
  FixedHistogram h;
  s.expose("x", [] { return 0.0; });          // No-op, must not crash.
  s.expose_counter("x", [] { return 0ull; });
  s.expose_histogram("x", h);
  EXPECT_FALSE(s.sub("y").valid());
}

TEST(Metrics, ScopePrefixesPaths) {
  MetricsRegistry reg;
  Scope root(&reg, "mem");
  root.sub("dram/ctrl00").counter("reads");
  EXPECT_TRUE(reg.contains("mem/dram/ctrl00/reads"));
}

TEST(Metrics, IdxZeroPads) {
  EXPECT_EQ(idx(0), "00");
  EXPECT_EQ(idx(7), "07");
  EXPECT_EQ(idx(123), "123");  // Wider values are not truncated.
  EXPECT_EQ(idx(3, 3), "003");
}

// --------------------------------------------------------------- JSON write

TEST(StatsJson, CanonicalSnapshotDocument) {
  MetricsRegistry reg;
  reg.counter("a/n").inc(3);
  reg.gauge("a/x").set(0.5);
  reg.counter("b").inc(1);
  const std::string doc = json::snapshot_to_json(reg.snapshot());
  EXPECT_EQ(doc,
            "{\n"
            "  \"a\": {\n"
            "    \"n\": 3,\n"
            "    \"x\": 0.5\n"
            "  },\n"
            "  \"b\": 1\n"
            "}\n");
}

TEST(StatsJson, NumbersAreCanonical) {
  EXPECT_EQ(json::number(std::uint64_t{12345}), "12345");
  EXPECT_EQ(json::number(0.5), "0.5");
  EXPECT_EQ(json::number(std::nan("")), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  // %.17g round-trips any double.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json::number(v)), v);
}

TEST(StatsJson, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(StatsJson, IdenticalSnapshotsEmitIdenticalBytes) {
  auto build = [] {
    MetricsRegistry reg;
    reg.counter("z/count").inc(9);
    reg.gauge("a/value").set(1.0 / 3.0);
    return json::snapshot_to_json(reg.snapshot());
  };
  EXPECT_EQ(build(), build());
}

// --------------------------------------------------------------- JSON parse

TEST(StatsJson, ParseFlattensNestedDocument) {
  const json::Flat f = json::parse_flat(
      R"({"a": {"n": 3, "x": 0.5}, "s": "hi", "t": true, "z": null,
          "arr": [1, 2.5]})");
  EXPECT_EQ(f.at("a/n").num, 3.0);
  EXPECT_TRUE(f.at("a/n").integral);
  EXPECT_FALSE(f.at("a/x").integral);
  EXPECT_EQ(f.at("s").str, "hi");
  EXPECT_TRUE(f.at("t").boolean);
  EXPECT_EQ(f.at("z").kind, json::Value::Kind::kNull);
  EXPECT_EQ(f.at("arr/000").num, 1.0);
  EXPECT_EQ(f.at("arr/001").num, 2.5);
}

TEST(StatsJson, ParseRoundTripsEmitterOutput) {
  MetricsRegistry reg;
  reg.counter("runs/total").inc(17);
  reg.gauge("lat/avg").set(12.75);
  const json::Flat f = json::parse_flat(json::snapshot_to_json(reg.snapshot()));
  EXPECT_EQ(f.at("runs/total").num, 17.0);
  EXPECT_TRUE(f.at("runs/total").integral);
  EXPECT_EQ(f.at("lat/avg").num, 12.75);
}

TEST(StatsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(json::parse_flat("{"), std::runtime_error);
  EXPECT_THROW(json::parse_flat("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(json::parse_flat("[1, 2"), std::runtime_error);
  EXPECT_THROW(json::parse_flat("{\"a\": 1} trailing"), std::runtime_error);
}

// ----------------------------------------------------------------- statdiff

json::Flat flat(const std::string& text) { return json::parse_flat(text); }

TEST(StatDiff, IdenticalDocumentsHaveNoDiffs) {
  const json::Flat a = flat(R"({"n": 3, "x": 0.5})");
  EXPECT_TRUE(diff_stats(a, a, {}).empty());
}

TEST(StatDiff, IntegralLeavesCompareExactly) {
  const json::Flat a = flat(R"({"count": 1000})");
  const json::Flat b = flat(R"({"count": 1001})");
  DiffOptions opts;
  opts.default_rtol = 0.1;  // Default rtol must NOT soften integral leaves.
  const auto diffs = diff_stats(a, b, opts);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, "count");
  EXPECT_EQ(diffs[0].reason, "not-exact");
}

TEST(StatDiff, FloatLeavesUseRelativeTolerance) {
  const json::Flat a = flat(R"({"ipc": 1.0})");
  const json::Flat b = flat(R"({"ipc": 1.0000001})");
  EXPECT_EQ(diff_stats(a, b, {}).size(), 1u);  // Exact by default.
  DiffOptions opts;
  opts.default_rtol = 1e-6;
  EXPECT_TRUE(diff_stats(a, b, opts).empty());
}

TEST(StatDiff, RuleOverridesBySubstringLastWins) {
  const json::Flat a = flat(R"({"mem": {"reads": 100}, "lat": {"avg": 10.0}})");
  const json::Flat b = flat(R"({"mem": {"reads": 105}, "lat": {"avg": 10.4}})");
  DiffOptions opts;
  opts.rules.push_back({"mem/", 0.2});   // Integral leaf gains a tolerance.
  opts.rules.push_back({"lat/avg", 0.1});
  EXPECT_TRUE(diff_stats(a, b, opts).empty());
  opts.rules.push_back({"mem/reads", 0.0});  // Last match wins: exact again.
  EXPECT_EQ(diff_stats(a, b, opts).size(), 1u);
}

TEST(StatDiff, GlobMatcher) {
  EXPECT_FALSE(is_glob("fabric/"));
  EXPECT_TRUE(is_glob("fabric/*"));
  EXPECT_TRUE(is_glob("sw?0"));

  EXPECT_TRUE(glob_match("fabric/*", "fabric/sw00/down/out01/bytes"));
  EXPECT_TRUE(glob_match("fabric/*/queue_delay_sum",
                         "fabric/sw00/down/out01/queue_delay_sum"));
  EXPECT_TRUE(glob_match("*/out?" "?/bytes", "fabric/sw01/up/out03/bytes"));
  EXPECT_TRUE(glob_match("*", "anything/at/all"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));

  // Globs anchor to the FULL path (unlike substring rules).
  EXPECT_FALSE(glob_match("sw00/*", "fabric/sw00/down/out00/bytes"));
  EXPECT_FALSE(glob_match("fabric/*/bytes", "fabric/sw00/down/out00/messages"));
  EXPECT_FALSE(glob_match("out?" "?/bytes", "out1/bytes"));
  EXPECT_FALSE(glob_match("a*b", "acd"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

TEST(StatDiff, GlobRuleCoversFabricSubtreeWithOneLine) {
  // The fabric use case: one glob rule rtol-softens every switch-plane
  // queue_delay_sum while the sibling byte counters stay exact.
  const json::Flat a = flat(R"({"fabric": {
      "sw00": {"down": {"out00": {"bytes": 640, "queue_delay_sum": 100.0}}},
      "sw01": {"up": {"out01": {"bytes": 320, "queue_delay_sum": 50.0}}}}})");
  const json::Flat b = flat(R"({"fabric": {
      "sw00": {"down": {"out00": {"bytes": 640, "queue_delay_sum": 104.0}}},
      "sw01": {"up": {"out01": {"bytes": 321, "queue_delay_sum": 51.0}}}}})");
  DiffOptions opts;
  opts.rules.push_back({"fabric/*/queue_delay_sum", 0.05});
  const auto diffs = diff_stats(a, b, opts);
  ASSERT_EQ(diffs.size(), 1u);  // Only the perturbed byte counter survives.
  EXPECT_EQ(diffs[0].path, "fabric/sw01/up/out01/bytes");

  // Last-match-wins interacts with globs like with substrings.
  opts.rules.push_back({"fabric/sw01/*", 0.0});
  EXPECT_EQ(diff_stats(a, b, opts).size(), 2u);
}

TEST(StatDiff, RasSubtreeGlobRules) {
  // The CI fault-preset smoke pins the whole ras/* subtree exact with one
  // glob while softer rules cover the rest of the document.
  EXPECT_TRUE(glob_match("ras/*", "ras/crc_errors"));
  EXPECT_TRUE(glob_match("ras/*", "ras/core/03/machine_checks"));
  EXPECT_FALSE(glob_match("ras/*", "run/mem/reads"));
  EXPECT_FALSE(glob_match("ras/*", "mem/ras_like/counter"));

  const json::Flat a = flat(R"({"ras": {"crc_errors": 10, "replays": 9},
                                "lat": {"avg": 10.0}})");
  const json::Flat b = flat(R"({"ras": {"crc_errors": 11, "replays": 9},
                                "lat": {"avg": 10.4}})");
  DiffOptions opts;
  opts.rules.push_back({"lat/", 0.1});
  opts.rules.push_back({"ras/*", 0.0});  // Fault streams are deterministic.
  const auto diffs = diff_stats(a, b, opts);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, "ras/crc_errors");
}

TEST(StatDiff, SvcSubtreeGlobRules) {
  // The open-loop CI smoke pins the whole svc/* subtree exact — arrival
  // streams are seeded and latency endpoints are cycle counts, so two runs
  // must agree bit-for-bit, tail percentiles included — while the usual
  // golden tolerance covers the rest of the document.
  EXPECT_TRUE(glob_match("svc/*", "svc/all/lat/p999"));
  EXPECT_TRUE(glob_match("svc/*", "svc/tenant/03/slo/00/achieved_ns"));
  EXPECT_FALSE(glob_match("svc/*", "run/svc_like/counter"));

  const json::Flat a = flat(R"({"svc": {"all": {"lat": {"p99": 120, "p999": 400},
                                                "admitted": 500}},
                                "lat": {"avg": 10.0}})");
  const json::Flat b = flat(R"({"svc": {"all": {"lat": {"p99": 120, "p999": 416},
                                                "admitted": 500}},
                                "lat": {"avg": 10.4}})");
  DiffOptions opts;
  opts.rules.push_back({"lat/", 0.1});
  opts.rules.push_back({"svc/*", 0.0});
  const auto diffs = diff_stats(a, b, opts);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, "svc/all/lat/p999");
  EXPECT_EQ(diffs[0].reason, "not-exact");
}

TEST(StatDiff, TierSubtreeGlobRules) {
  // The tiering CI smoke pins the whole tier/* subtree exact with one glob:
  // heat counters, epoch barriers and migration traffic are all functions
  // of the deterministic access stream, so two runs (and both scheduler
  // modes) must agree bit-for-bit.
  EXPECT_TRUE(glob_match("tier/*", "tier/promotions"));
  EXPECT_TRUE(glob_match("tier/*", "tier/fast/fraction"));
  EXPECT_TRUE(glob_match("tier/*", "tier/capacity/accesses"));
  EXPECT_FALSE(glob_match("tier/*", "run/tier_like/counter"));
  EXPECT_FALSE(glob_match("tier/*", "mem/tier0/dram/ctrl00/reads"));

  const json::Flat a = flat(R"({"tier": {"promotions": 12, "demotions": 3,
                                         "fast": {"fraction": 0.8}},
                                "lat": {"avg": 10.0}})");
  const json::Flat b = flat(R"({"tier": {"promotions": 13, "demotions": 3,
                                         "fast": {"fraction": 0.8}},
                                "lat": {"avg": 10.4}})");
  DiffOptions opts;
  opts.rules.push_back({"lat/", 0.1});
  opts.rules.push_back({"tier/*", 0.0});
  const auto diffs = diff_stats(a, b, opts);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, "tier/promotions");
}

TEST(StatDiff, PoolSubtreeGlobRules) {
  // The pooled CI smoke pins the whole pool/* subtree exact with one glob:
  // directory decisions, invalidation counts and per-host admissions are
  // all functions of the deterministic inter-host ordering, so two runs
  // (and both scheduler modes) must agree bit-for-bit. The glob covers the
  // nested mem/ scope too (fabric links, pooled DRAM controllers).
  EXPECT_TRUE(glob_match("pool/*", "pool/coh/invals_sent"));
  EXPECT_TRUE(glob_match("pool/*", "pool/host/01/lat/p99"));
  EXPECT_TRUE(glob_match("pool/*", "pool/dev/00/occupancy"));
  EXPECT_TRUE(glob_match("pool/*", "pool/mem/host/00/cxl/link00/tx_messages"));
  EXPECT_FALSE(glob_match("pool/*", "run/pool_like/counter"));
  EXPECT_FALSE(glob_match("pool/*", "mem/pooled/dram/ctrl00/reads"));

  const json::Flat a = flat(R"({"pool": {"coh": {"invals_sent": 40, "invals_acked": 40},
                                         "host": {"00": {"instructions": 900}}},
                                "lat": {"avg": 10.0}})");
  const json::Flat b = flat(R"({"pool": {"coh": {"invals_sent": 41, "invals_acked": 41},
                                         "host": {"00": {"instructions": 900}}},
                                "lat": {"avg": 10.4}})");
  DiffOptions opts;
  opts.rules.push_back({"lat/", 0.1});
  opts.rules.push_back({"pool/*", 0.0});
  const auto diffs = diff_stats(a, b, opts);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].path, "pool/coh/invals_acked");
  EXPECT_EQ(diffs[1].path, "pool/coh/invals_sent");
}

TEST(Registry, FixedHistogramViewFlattensTailLeaves) {
  // expose_histogram turns a component-owned FixedHistogram into the
  // count/mean/p50/p90/p99/p999/max leaf set; the cycle percentiles and max
  // are integral so statdiff compares them exactly.
  MetricsRegistry reg;
  FixedHistogram h(1, 2048);
  reg.expose_histogram("svc/all/lat", h);
  EXPECT_TRUE(reg.contains("svc/all/lat"));
  EXPECT_THROW(reg.expose_histogram("svc/all/lat", h), std::invalid_argument);
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.at("svc/all/lat/count").count, 1000u);
  EXPECT_TRUE(snap.at("svc/all/lat/p50").integral);
  EXPECT_EQ(snap.at("svc/all/lat/p50").count, 500u);
  EXPECT_EQ(snap.at("svc/all/lat/p90").count, 900u);
  EXPECT_EQ(snap.at("svc/all/lat/p99").count, 990u);
  EXPECT_EQ(snap.at("svc/all/lat/p999").count, 999u);
  EXPECT_EQ(snap.at("svc/all/lat/max").count, 1000u);
  EXPECT_FALSE(snap.at("svc/all/lat/mean").integral);
  EXPECT_DOUBLE_EQ(snap.at("svc/all/lat/mean").value, 500.5);
}

TEST(StatDiff, StructuralAndTypeDiffsAlwaysReported) {
  const json::Flat a = flat(R"({"only_a": 1, "both": 2})");
  const json::Flat b = flat(R"({"only_b": 1, "both": "two"})");
  DiffOptions opts;
  opts.default_rtol = 100.0;
  const auto diffs = diff_stats(a, b, opts);
  ASSERT_EQ(diffs.size(), 3u);  // missing x2 + type.
  EXPECT_EQ(diffs[0].path, "both");
  EXPECT_EQ(diffs[0].reason, "type");
  EXPECT_EQ(diffs[1].reason, "missing");
  EXPECT_EQ(diffs[2].reason, "missing");
}

TEST(StatDiff, InjectedPerturbationIsDetected) {
  // The acceptance scenario behind the statdiff CLI: perturb one counter in
  // an otherwise identical document and the diff must be non-empty.
  MetricsRegistry reg;
  reg.counter("mem/dram/ctrl00/reads_done").inc(500);
  reg.gauge("run/ipc_per_core").set(1.2345);
  const std::string base = json::snapshot_to_json(reg.snapshot());
  reg.counter("mem/dram/ctrl00/reads_done").inc();  // The perturbation.
  const std::string pert = json::snapshot_to_json(reg.snapshot());
  DiffOptions opts;
  opts.default_rtol = 1e-9;
  const auto diffs = diff_stats(json::parse_flat(base), json::parse_flat(pert), opts);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, "mem/dram/ctrl00/reads_done");
  EXPECT_FALSE(to_string(diffs[0]).empty());
}

TEST(StatDiff, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(relative_error(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(relative_error(-1.0, 1.0), 2.0);
}

}  // namespace
}  // namespace coaxial::obs
