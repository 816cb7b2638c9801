// Benchmark regression diffing: the comparison core of tools/bench_compare.
//
// Compares a current BENCH_SUITE.json (or a single BENCH_<name>.json
// report) against a committed baseline, metric by metric:
//
//   * reports.<name>.metrics.*          — deterministic quantities
//     (makespans, widths, congestion).  Any relative deviation beyond
//     `metric_tol` (default 0: exact) in either direction is a regression —
//     a changed deterministic metric is a behavioral change.
//   * reports.<name>.timings.*.seconds  — wall-clock spans, noisy by
//     nature.  Skipped unless `timing_tol` >= 0; then only slower-than
//     baseline × (1 + tol) regresses, faster is an improvement.
//
// Reports present on one side only are surfaced as kMissing/kNew, never as
// regressions (suites grow; baselines trail, and a subset run such as
// `bench_runner --only oracle` is compared against the full baseline).  A
// metric that vanished from a report both sides have is kVanished, which
// gates like a regression: deleting a gated metric must be a deliberate
// baseline edit, never a silent pass.  Pure data transformation — printing
// and exit codes stay in the tool.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hyperpath::obs {

class JsonValue;

enum class DeltaKind {
  kOk,           // within tolerance
  kRegression,   // beyond tolerance (the gating kind)
  kImprovement,  // timing faster than baseline beyond tolerance
  kMissing,      // report or timing in baseline, absent from current
  kNew,          // in current, absent from baseline
  kVanished,     // metric of a report both suites have, absent from current
                 // (gating: counted by regressions())
};

const char* to_string(DeltaKind kind);

struct Delta {
  std::string report;    // experiment name ("theorem1")
  std::string key;       // metric or timing name ("worst_phase_cost")
  bool is_timing = false;
  double baseline = 0;
  double current = 0;
  /// (current - baseline) / max(|baseline|, epsilon); 0 for one-sided.
  double rel_change = 0;
  DeltaKind kind = DeltaKind::kOk;
};

struct CompareOptions {
  /// Relative tolerance for metrics; 0 = exact match required.
  double metric_tol = 0.0;
  /// Relative tolerance for timings; negative = do not compare timings.
  double timing_tol = -1.0;
};

struct CompareResult {
  std::vector<Delta> deltas;

  std::size_t regressions() const;  // kRegression + kVanished
  std::size_t compared() const;  // kOk + kRegression + kImprovement
  bool pass() const { return regressions() == 0; }
};

/// `current` and `baseline` each accept either a suite document (object
/// with "reports") or a bare report (object with "experiment"), which is
/// treated as a one-report suite.  Throws hyperpath::Error on any other
/// shape.
CompareResult compare_suites(const JsonValue& current,
                             const JsonValue& baseline,
                             const CompareOptions& options = {});

}  // namespace hyperpath::obs
