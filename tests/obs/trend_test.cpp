// Tests for the benchmark gate core (obs/trend.hpp): the flattener (suite,
// bare report, ledger line), the delta classifier of baseline mode, median
// step detection and comparison-key grouping of history mode (series
// sampled at different thread counts or telemetry rates are never
// compared), the analytic-bounds check both modes run, and the exit rule
// (GateReport::pass) bench_gate returns.
#include "obs/trend.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath {
namespace {

using obs::DeltaKind;
using obs::GateOptions;
using obs::GateReport;
using obs::LedgerEntry;
using obs::comparison_key;
using obs::detect_step;
using obs::gate_baseline;
using obs::gate_history;

LedgerEntry entry(std::map<std::string, double> metrics,
                  std::map<std::string, double> timings = {}) {
  LedgerEntry e;
  e.hostname = "host";
  e.compiler = "GNU 12";
  e.effective_threads = 4;
  e.telemetry_period_steps = 64;
  e.metrics = std::move(metrics);
  e.timings = std::move(timings);
  return e;
}

LedgerEntry flat(const std::string& text) {
  const auto doc = obs::json_parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return obs::flatten_suite(*doc);
}

std::size_t deltas_of(const GateReport& r, DeltaKind kind,
                      const std::string& name) {
  std::size_t n = 0;
  for (const auto& d : r.deltas) n += d.kind == kind && d.name == name;
  return n;
}

const char* kBaseline = R"({
  "reports": {
    "theorem1": {
      "experiment": "theorem1",
      "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
      "timings": {"construct": {"seconds": 1.0, "count": 1}}
    },
    "theorem2": {
      "experiment": "theorem2",
      "metrics": {"worst_phase_cost": 3}
    }
  }
})";

// --- baseline mode ---------------------------------------------------------

TEST(Regress, UnchangedSuitePasses) {
  const LedgerEntry base = flat(kBaseline);
  const GateReport r = gate_baseline(base, base);
  EXPECT_TRUE(r.pass());
  EXPECT_EQ(r.failures(), 0u);
  EXPECT_EQ(r.compared(), 3u);  // 3 metrics; timings not compared by default
}

TEST(Regress, PerturbedMetricRegresses) {
  const LedgerEntry cur = flat(R"({
    "reports": {
      "theorem1": {
        "experiment": "theorem1",
        "metrics": {"worst_phase_cost": 4, "paper_claimed_cost": 3},
        "timings": {"construct": {"seconds": 1.0}}
      },
      "theorem2": {
        "experiment": "theorem2",
        "metrics": {"worst_phase_cost": 3}
      }
    }
  })");
  const GateReport r = gate_baseline(cur, flat(kBaseline));
  EXPECT_FALSE(r.pass());
  EXPECT_EQ(r.failures(), 1u);
  ASSERT_EQ(r.count(DeltaKind::kChanged), 1u);
  for (const auto& d : r.deltas) {
    if (d.kind != DeltaKind::kChanged) continue;
    EXPECT_EQ(d.name, "theorem1.worst_phase_cost");
    EXPECT_EQ(d.baseline, 3);
    EXPECT_EQ(d.current, 4);
  }
}

TEST(Regress, MetricImprovementStillRegressesAtZeroTolerance) {
  // Deterministic metrics gate both directions: a lower makespan than the
  // committed baseline means the baseline is stale, not that all is well.
  const LedgerEntry cur = flat(R"({
    "reports": {
      "theorem2": {"experiment": "theorem2",
                   "metrics": {"worst_phase_cost": 2}}
    }
  })");
  EXPECT_FALSE(gate_baseline(cur, flat(kBaseline)).pass());
}

TEST(Regress, TimingsSkippedByDefaultGatedWhenEnabled) {
  const LedgerEntry cur = flat(R"({
    "reports": {
      "theorem1": {
        "experiment": "theorem1",
        "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
        "timings": {"construct": {"seconds": 2.0}}
      }
    }
  })");
  // Default: 2x slower construct is invisible.
  EXPECT_TRUE(gate_baseline(cur, flat(kBaseline)).pass());
  // With a 50% budget it regresses.
  GateOptions opt;
  opt.timing_tol = 0.5;
  const GateReport slow = gate_baseline(cur, flat(kBaseline), opt);
  EXPECT_FALSE(slow.pass());
  EXPECT_EQ(deltas_of(slow, DeltaKind::kSlower, "theorem1.construct"), 1u);
  // Faster-than-baseline is an improvement, never a regression.
  const LedgerEntry fast = flat(R"({
    "reports": {
      "theorem1": {
        "experiment": "theorem1",
        "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
        "timings": {"construct": {"seconds": 0.1}}
      }
    }
  })");
  const GateReport quick = gate_baseline(fast, flat(kBaseline), opt);
  EXPECT_TRUE(quick.pass());
  EXPECT_EQ(deltas_of(quick, DeltaKind::kFaster, "theorem1.construct"), 1u);
}

TEST(Regress, TimingOnOneSideIsListedInEveryRunAndNeverGates) {
  // A timing only CURRENT has is "new", one only the baseline has is
  // "missing" — with or without a timing tolerance, and never gating.
  const LedgerEntry cur = flat(R"({
    "reports": {
      "theorem1": {
        "experiment": "theorem1",
        "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
        "timings": {"simulate": {"seconds": 9.0}},
        "measurements": {"q24_compile_s": {"value": 0.2, "unit": "s"},
                         "rss_kb": {"value": 512, "unit": "kb"}}
      },
      "theorem2": {"experiment": "theorem2",
                   "metrics": {"worst_phase_cost": 3}}
    }
  })");
  for (double tol : {-1.0, 0.5}) {
    GateOptions opt;
    opt.timing_tol = tol;
    const GateReport r = gate_baseline(cur, flat(kBaseline), opt);
    EXPECT_TRUE(r.pass()) << "tol " << tol;
    EXPECT_EQ(deltas_of(r, DeltaKind::kNew, "theorem1.simulate"), 1u);
    EXPECT_EQ(deltas_of(r, DeltaKind::kNew, "theorem1.q24_compile_s"), 1u);
    EXPECT_EQ(deltas_of(r, DeltaKind::kNew, "theorem1.rss_kb"), 1u);
    EXPECT_EQ(deltas_of(r, DeltaKind::kMissing, "theorem1.construct"), 1u);
  }
}

TEST(Regress, MissingAndNewReportsAreNotRegressions) {
  const LedgerEntry cur = flat(R"({
    "reports": {
      "theorem1": {"experiment": "theorem1",
                   "metrics": {"worst_phase_cost": 3,
                                "paper_claimed_cost": 3}},
      "brand_new": {"experiment": "brand_new", "metrics": {"x": 1}}
    }
  })");
  const GateReport r = gate_baseline(cur, flat(kBaseline));
  EXPECT_TRUE(r.pass());
  EXPECT_EQ(deltas_of(r, DeltaKind::kMissing, "theorem2"), 1u);
  EXPECT_EQ(deltas_of(r, DeltaKind::kNew, "brand_new"), 1u);
  // A whole missing report is listed once, not metric by metric.
  EXPECT_EQ(r.count(DeltaKind::kMissing), 2u);  // theorem2 + construct
}

TEST(Regress, VanishedMetricOfAPresentReportRegresses) {
  // theorem1 is still reported, but without paper_claimed_cost: a deleted
  // gated metric must trip the gate, not pass as merely "missing".
  const LedgerEntry cur = flat(R"({
    "reports": {
      "theorem1": {"experiment": "theorem1",
                   "metrics": {"worst_phase_cost": 3}},
      "theorem2": {"experiment": "theorem2",
                   "metrics": {"worst_phase_cost": 3}}
    }
  })");
  const GateReport r = gate_baseline(cur, flat(kBaseline));
  EXPECT_FALSE(r.pass());
  EXPECT_EQ(r.failures(), 1u);
  ASSERT_EQ(r.count(DeltaKind::kVanished), 1u);
  EXPECT_EQ(
      deltas_of(r, DeltaKind::kVanished, "theorem1.paper_claimed_cost"), 1u);
}

TEST(Regress, BareReportActsAsOneReportSuite) {
  const LedgerEntry bare = flat(R"({
    "experiment": "theorem2", "metrics": {"worst_phase_cost": 3}
  })");
  const GateReport r = gate_baseline(bare, flat(kBaseline));
  EXPECT_TRUE(r.pass());
  EXPECT_EQ(r.compared(), 1u);
}

TEST(Regress, RejectsUnrecognizedShape) {
  EXPECT_THROW(flat("[1,2]"), Error);
  EXPECT_THROW(flat(R"({"foo": 1})"), Error);
}

TEST(Regress, FloorViolationFailsTheBaselineGate) {
  // Identical to its baseline, yet below its analytic floor: the bounds
  // check runs in baseline mode too.
  for (const char* floor : {"q24_congestion_floor", "q24_floor"}) {
    SCOPED_TRACE(floor);
    const LedgerEntry cur = flat(
        std::string(R"({"experiment": "oracle", "metrics": {)") +
        R"("q24_peak_congestion": 20, ")" + floor + R"(": 21}})");
    const GateReport r = gate_baseline(cur, cur);
    EXPECT_FALSE(r.pass());
    ASSERT_EQ(r.bounds_violations.size(), 1u);
    EXPECT_NE(r.bounds_violations[0].find("oracle.q24_peak_congestion"),
              std::string::npos);
  }
}

TEST(Regress, InBoundsFlagAtZeroFailsTheBaselineGate) {
  const LedgerEntry cur = flat(R"({
    "experiment": "lower_bound", "metrics": {"schedule_in_bounds": 0}
  })");
  const GateReport r = gate_baseline(cur, cur);
  EXPECT_FALSE(r.pass());
  EXPECT_EQ(r.bounds_violations.size(), 1u);
}

// --- history mode ----------------------------------------------------------

TEST(DetectStep, FindsAPersistentChange) {
  const auto f = detect_step("m", {10, 10, 10, 20, 20}, 0.0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->name, "m");
  // The earliest split realizing the max change wins; both split medians
  // sit on the true levels either side of the step.
  EXPECT_GE(f->split, 2u);
  EXPECT_LE(f->split, 3u);
  EXPECT_DOUBLE_EQ(f->median_before, 10.0);
  EXPECT_DOUBLE_EQ(f->median_after, 20.0);
  EXPECT_DOUBLE_EQ(f->rel_change, 1.0);
}

TEST(DetectStep, IgnoresASingleRunBlip) {
  // One noisy run in the middle never moves either split median, so the
  // blip is invisible to the detector even at tolerance 0.
  EXPECT_FALSE(detect_step("m", {10, 10, 30, 10, 10}, 0.0).has_value());
}

TEST(DetectStep, ReportsNegativeStepsToo) {
  const auto f = detect_step("m", {20, 20, 20, 10, 10}, 0.0);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->rel_change, -0.5);
}

TEST(DetectStep, NeedsAtLeastTwoValues) {
  EXPECT_FALSE(detect_step("m", {}, 0.0).has_value());
  EXPECT_FALSE(detect_step("m", {10}, 0.0).has_value());
}

TEST(DetectStep, ToleranceSuppressesSmallSteps) {
  EXPECT_FALSE(detect_step("m", {1.0, 1.0, 1.2, 1.2}, 0.30).has_value());
  EXPECT_TRUE(detect_step("m", {1.0, 1.0, 1.5, 1.5}, 0.30).has_value());
}

TEST(ComparisonKey, EncodesThreadCountAndSamplingRate) {
  LedgerEntry e = entry({{"b.m", 1}});
  const std::string base = comparison_key(e);
  EXPECT_NE(base.find("threads=4"), std::string::npos);
  EXPECT_NE(base.find("period=64"), std::string::npos);
  LedgerEntry other = e;
  other.effective_threads = 8;
  EXPECT_NE(comparison_key(other), base);
  other = e;
  other.telemetry_period_steps = 1;
  EXPECT_NE(comparison_key(other), base);
}

TEST(AnalyzeTrend, GroupsByTheNewestKeyAndSkipsTheRest) {
  // Two runs at threads=4, then a run at threads=8, then two more at
  // threads=4.  The newest entry picks the key; the threads=8 run is
  // excluded and reported, not compared.
  std::vector<LedgerEntry> ledger;
  ledger.push_back(entry({{"b.m", 10}}));
  ledger.push_back(entry({{"b.m", 10}}));
  LedgerEntry odd = entry({{"b.m", 999}});
  odd.effective_threads = 8;
  ledger.push_back(odd);
  ledger.push_back(entry({{"b.m", 10}}));
  ledger.push_back(entry({{"b.m", 10}}));

  const GateReport r = gate_history(ledger);
  EXPECT_EQ(r.runs, 4u);
  EXPECT_EQ(r.series, 1u);
  EXPECT_TRUE(r.steps.empty());
  EXPECT_TRUE(r.pass());
  ASSERT_EQ(r.skipped_keys.size(), 1u);
  EXPECT_NE(r.skipped_keys[0].find("threads=8"), std::string::npos);
}

TEST(AnalyzeTrend, MetricStepGatesTheReport) {
  std::vector<LedgerEntry> ledger;
  for (double v : {100.0, 100.0, 100.0, 112.0, 112.0}) {
    ledger.push_back(entry({{"simcore.makespan", v}}));
  }
  const GateReport r = gate_history(ledger);
  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_EQ(r.steps[0].name, "simcore.makespan");
  EXPECT_FALSE(r.steps[0].is_timing);
  EXPECT_NEAR(r.steps[0].rel_change, 0.12, 1e-9);
  EXPECT_FALSE(r.pass());
}

TEST(AnalyzeTrend, TimingStepsGateOnlyWhenSlowerUnderTimingTol) {
  std::vector<LedgerEntry> slower, faster;
  for (double secs : {1.0, 1.0, 2.0, 2.0}) {
    slower.push_back(entry({{"b.m", 7}}, {{"b.total", secs}}));
    faster.push_back(entry({{"b.m", 7}}, {{"b.total", 3.0 - secs}}));
  }
  // No tolerance: timings are not analyzed at all.
  EXPECT_TRUE(gate_history(slower).pass()) << "timing drift must not gate";
  GateOptions opt;
  opt.timing_tol = 0.30;
  const GateReport r = gate_history(slower, opt);
  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_TRUE(r.steps[0].is_timing);
  EXPECT_FALSE(r.pass());
  EXPECT_TRUE(gate_history(faster, opt).pass());
}

TEST(AnalyzeTrend, WindowTrimsOldRuns) {
  // A step lives entirely outside the analysis window: invisible.
  std::vector<LedgerEntry> ledger;
  for (double v : {10.0, 10.0, 20.0, 20.0}) {
    ledger.push_back(entry({{"b.m", v}}));
  }
  GateOptions opt;
  opt.window = 2;
  const GateReport r = gate_history(ledger, opt);
  EXPECT_EQ(r.runs, 2u);
  EXPECT_TRUE(r.steps.empty());
  EXPECT_TRUE(r.pass());
}

TEST(AnalyzeTrend, MissingSeriesIsNotAStep) {
  // A metric that only exists in newer runs (the suite grew) is listed as
  // new, not treated as drift.
  std::vector<LedgerEntry> ledger;
  ledger.push_back(entry({{"b.m", 10}}));
  ledger.push_back(entry({{"b.m", 10}, {"b.new_metric", 42}}));
  const GateReport r = gate_history(ledger);
  EXPECT_EQ(r.series, 1u);
  EXPECT_EQ(deltas_of(r, DeltaKind::kNew, "b.new_metric"), 1u);
  EXPECT_TRUE(r.pass());
}

TEST(AnalyzeTrend, VanishedMetricFailsTheHistoryGate) {
  std::vector<LedgerEntry> ledger;
  ledger.push_back(entry({{"b.m", 10}, {"b.gone", 1}}));
  ledger.push_back(entry({{"b.m", 10}}));
  const GateReport r = gate_history(ledger);
  EXPECT_EQ(deltas_of(r, DeltaKind::kVanished, "b.gone"), 1u);
  EXPECT_FALSE(r.pass());
}

TEST(AnalyzeTrend, OneRunHistoryFails) {
  // A ledger too thin to compare anything is not "stable".
  EXPECT_FALSE(gate_history({}).pass());
  const GateReport r = gate_history({entry({{"b.m", 10}})});
  EXPECT_EQ(r.runs, 1u);
  EXPECT_TRUE(r.steps.empty());
  EXPECT_FALSE(r.pass());
}

TEST(AnalyzeTrend, BoundsViolationsGateOnTheNewestRun) {
  // Floor exceeded directly, ceiling exceeded through the congestion ->
  // peak_congestion naming convention, and a failed *_in_bounds flag.
  std::vector<LedgerEntry> ledger;
  const LedgerEntry bad = entry({
      {"b.makespan", 4},
      {"b.makespan_floor", 6},  // measured 4 below analytic floor 6
      {"b.q16_peak_congestion", 10},
      {"b.q16_congestion_floor", 5},
      {"b.q16_congestion_ceiling", 8},  // measured 10 above ceiling 8
      {"b.schedule_in_bounds", 0},
  });
  ledger.push_back(bad);
  ledger.push_back(bad);
  const GateReport r = gate_history(ledger);
  ASSERT_EQ(r.bounds_violations.size(), 3u);
  EXPECT_FALSE(r.pass());

  // And the satisfied version of the same shapes passes.
  ledger.clear();
  const LedgerEntry good = entry({
      {"b.makespan", 8},
      {"b.makespan_floor", 6},
      {"b.q16_peak_congestion", 7},
      {"b.q16_congestion_floor", 5},
      {"b.q16_congestion_ceiling", 8},
      {"b.schedule_in_bounds", 1},
  });
  ledger.push_back(good);
  ledger.push_back(good);
  EXPECT_TRUE(gate_history(ledger).pass());
}

// --- ledger and flattener --------------------------------------------------

TEST(LedgerEntry, RoundTripsThroughJsonl) {
  LedgerEntry e = entry({{"b.m", 1.5}, {"b.n", 2}}, {{"b.total", 0.25}});
  e.measures = {{"b.rss_kb", 1024}};
  e.timestamp = "2026-08-08T00:00:00Z";
  e.git_sha = "abc123";
  e.flags = "-O2";
  e.build_type = "Release";

  obs::JsonWriter w;
  obs::write_ledger_entry(w, e);
  const auto doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.has_value()) << w.str();
  std::string error;
  const auto back = obs::parse_ledger_entry(*doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->timestamp, e.timestamp);
  EXPECT_EQ(back->git_sha, e.git_sha);
  EXPECT_EQ(back->hostname, e.hostname);
  EXPECT_EQ(back->compiler, e.compiler);
  EXPECT_EQ(back->flags, e.flags);
  EXPECT_EQ(back->build_type, e.build_type);
  EXPECT_EQ(back->effective_threads, e.effective_threads);
  EXPECT_EQ(back->telemetry_period_steps, e.telemetry_period_steps);
  EXPECT_EQ(back->metrics, e.metrics);
  EXPECT_EQ(back->timings, e.timings);
  EXPECT_EQ(back->measures, e.measures);
  EXPECT_EQ(comparison_key(*back), comparison_key(e));
}

TEST(LedgerEntry, ParseRejectsEntriesWithoutMetrics) {
  const auto doc = obs::json_parse(
      R"({"kind":"bench_run","hostname":"h","metrics":{}})");
  ASSERT_TRUE(doc.has_value());
  std::string error;
  EXPECT_FALSE(obs::parse_ledger_entry(*doc, &error).has_value());
  EXPECT_FALSE(error.empty());

  const auto wrong_kind = obs::json_parse(R"({"kind":"sample"})");
  ASSERT_TRUE(wrong_kind.has_value());
  EXPECT_FALSE(obs::parse_ledger_entry(*wrong_kind).has_value());
}

TEST(FlattenSuite, LiftsMetricsAndSpanSecondsFromASuiteDocument) {
  const LedgerEntry e = flat(R"({
    "meta": {"timestamp": "t", "git_sha": "s", "hostname": "h",
             "compiler": "c", "flags": "-O2", "build_type": "Release",
             "effective_threads": 4},
    "reports": {
      "simcore": {
        "metrics": {"makespan": 128, "label": "not-a-number"},
        "timings": {"simulate/sim/run": {"seconds": 0.5, "count": 3}},
        "measurements": {"sim_serial_n12": {"value": 0.25, "unit": "s"},
                         "pps_n12": {"value": 9e6, "unit": "per_s"},
                         "ratio": {"value": null, "unit": "ratio"}}
      },
      "theorem1": {"metrics": {"paths": 8}}
    }
  })");
  EXPECT_EQ(e.hostname, "h");
  EXPECT_EQ(e.effective_threads, 4);
  ASSERT_EQ(e.metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(e.metrics.at("simcore.makespan"), 128.0);
  EXPECT_DOUBLE_EQ(e.metrics.at("theorem1.paths"), 8.0);
  // Profiler spans and "s" measurements are timings; other units measures.
  ASSERT_EQ(e.timings.size(), 2u);
  EXPECT_DOUBLE_EQ(e.timings.at("simcore.simulate/sim/run"), 0.5);
  EXPECT_DOUBLE_EQ(e.timings.at("simcore.sim_serial_n12"), 0.25);
  ASSERT_EQ(e.measures.size(), 1u);
  EXPECT_DOUBLE_EQ(e.measures.at("simcore.pps_n12"), 9e6);
}

}  // namespace
}  // namespace hyperpath
