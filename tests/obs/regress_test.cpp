// Tests for benchmark regression diffing (obs/regress.hpp): unchanged
// suites pass, perturbed metrics regress, timing tolerance semantics, and
// suite/report shape handling.
#include "obs/regress.hpp"

#include <gtest/gtest.h>

#include <string>

#include "base/error.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath {
namespace {

using obs::CompareOptions;
using obs::DeltaKind;
using obs::compare_suites;
using obs::json_parse;

obs::JsonValue suite(const std::string& text) {
  const auto doc = json_parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return *doc;
}

const char* kBaseline = R"({
  "reports": {
    "theorem1": {
      "experiment": "theorem1",
      "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
      "timings": {"construct": {"seconds": 1.0}}
    },
    "theorem2": {
      "experiment": "theorem2",
      "metrics": {"worst_phase_cost": 3}
    }
  }
})";

TEST(Regress, UnchangedSuitePasses) {
  const auto base = suite(kBaseline);
  const auto result = compare_suites(base, base);
  EXPECT_TRUE(result.pass());
  EXPECT_EQ(result.regressions(), 0u);
  EXPECT_EQ(result.compared(), 3u);  // 3 metrics; timings skipped by default
}

TEST(Regress, PerturbedMetricRegresses) {
  auto cur = suite(R"({
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
  const auto result = compare_suites(cur, suite(kBaseline));
  EXPECT_FALSE(result.pass());
  EXPECT_EQ(result.regressions(), 1u);
  bool found = false;
  for (const auto& d : result.deltas) {
    if (d.kind != DeltaKind::kRegression) continue;
    found = true;
    EXPECT_EQ(d.report, "theorem1");
    EXPECT_EQ(d.key, "worst_phase_cost");
    EXPECT_EQ(d.baseline, 3);
    EXPECT_EQ(d.current, 4);
  }
  EXPECT_TRUE(found);
}

TEST(Regress, MetricImprovementStillRegressesAtZeroTolerance) {
  // Deterministic metrics gate both directions: a lower makespan than the
  // committed baseline means the baseline is stale, not that all is well.
  auto cur = suite(R"({
    "reports": {
      "theorem2": {"experiment": "theorem2",
                   "metrics": {"worst_phase_cost": 2}}
    }
  })");
  const auto result = compare_suites(cur, suite(kBaseline));
  EXPECT_FALSE(result.pass());
}

TEST(Regress, MetricTolerancePermitsSmallDrift) {
  auto cur = suite(R"({
    "reports": {
      "theorem2": {"experiment": "theorem2",
                   "metrics": {"worst_phase_cost": 3.2}}
    }
  })");
  // 3 -> 3.2 is a 6.7% relative change.
  CompareOptions opt;
  opt.metric_tol = 0.05;
  EXPECT_FALSE(compare_suites(cur, suite(kBaseline), opt).pass());
  opt.metric_tol = 0.10;
  EXPECT_TRUE(compare_suites(cur, suite(kBaseline), opt).pass());
}

TEST(Regress, TimingsSkippedByDefaultGatedWhenEnabled) {
  auto cur = suite(R"({
    "reports": {
      "theorem1": {
        "experiment": "theorem1",
        "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
        "timings": {"construct": {"seconds": 2.0}}
      }
    }
  })");
  // Default: 2x slower construct is invisible.
  EXPECT_TRUE(compare_suites(cur, suite(kBaseline)).pass());
  // With a 50% budget it regresses.
  CompareOptions opt;
  opt.timing_tol = 0.5;
  const auto result = compare_suites(cur, suite(kBaseline), opt);
  EXPECT_FALSE(result.pass());
  // Faster-than-baseline is an improvement, never a regression.
  auto fast = suite(R"({
    "reports": {
      "theorem1": {
        "experiment": "theorem1",
        "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
        "timings": {"construct": {"seconds": 0.1}}
      }
    }
  })");
  const auto fast_result = compare_suites(fast, suite(kBaseline), opt);
  EXPECT_TRUE(fast_result.pass());
  bool improvement = false;
  for (const auto& d : fast_result.deltas) {
    improvement = improvement || d.kind == DeltaKind::kImprovement;
  }
  EXPECT_TRUE(improvement);
}

TEST(Regress, MissingAndNewReportsAreNotRegressions) {
  auto cur = suite(R"({
    "reports": {
      "theorem1": {"experiment": "theorem1",
                   "metrics": {"worst_phase_cost": 3,
                                "paper_claimed_cost": 3}},
      "brand_new": {"experiment": "brand_new", "metrics": {"x": 1}}
    }
  })");
  const auto result = compare_suites(cur, suite(kBaseline));
  EXPECT_TRUE(result.pass());
  std::size_t missing = 0, added = 0;
  for (const auto& d : result.deltas) {
    missing += d.kind == DeltaKind::kMissing;
    added += d.kind == DeltaKind::kNew;
  }
  EXPECT_GE(missing, 1u);  // theorem2 gone
  EXPECT_GE(added, 1u);    // brand_new appeared
}

TEST(Regress, VanishedMetricOfAPresentReportRegresses) {
  // theorem1 is still reported, but without paper_claimed_cost: a deleted
  // gated metric must trip the gate, not pass as merely "missing".
  auto cur = suite(R"({
    "reports": {
      "theorem1": {"experiment": "theorem1",
                   "metrics": {"worst_phase_cost": 3}},
      "theorem2": {"experiment": "theorem2",
                   "metrics": {"worst_phase_cost": 3}}
    }
  })");
  const auto result = compare_suites(cur, suite(kBaseline));
  EXPECT_FALSE(result.pass());
  EXPECT_EQ(result.regressions(), 1u);
  std::size_t vanished = 0;
  for (const auto& d : result.deltas) {
    if (d.kind != DeltaKind::kVanished) continue;
    ++vanished;
    EXPECT_EQ(d.report, "theorem1");
    EXPECT_EQ(d.key, "paper_claimed_cost");
    EXPECT_EQ(d.baseline, 3);
  }
  EXPECT_EQ(vanished, 1u);
}

TEST(Regress, BareReportActsAsOneReportSuite) {
  auto bare = suite(R"({
    "experiment": "theorem2", "metrics": {"worst_phase_cost": 3}
  })");
  const auto result = compare_suites(bare, suite(kBaseline));
  EXPECT_TRUE(result.pass());
  EXPECT_EQ(result.compared(), 1u);
}

TEST(Regress, RejectsUnrecognizedShape) {
  EXPECT_THROW(compare_suites(suite("[1,2]"), suite(kBaseline)), Error);
  EXPECT_THROW(compare_suites(suite(R"({"foo": 1})"), suite(kBaseline)),
               Error);
}

}  // namespace
}  // namespace hyperpath
