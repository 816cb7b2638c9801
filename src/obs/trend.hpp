// Benchmark gating: the analysis core of tools/bench_gate.
//
// Every input — a BENCH_SUITE.json, a bare BENCH_<name>.json report, or
// one line of the performance ledger bench_runner --history appends to —
// is first flattened into a LedgerEntry: run provenance plus three
// "<bench>.<name>" series maps:
//
//   * metrics  — reports.<name>.metrics.*: deterministic outputs
//     (makespans, widths, congestion).  Held exactly: any change in either
//     direction is a behavioral change and gates.
//   * timings  — reports.<name>.timings.<span path>.seconds (the profiler
//     tree) and every "s" measurement: wall-clock, noisy by nature.  Gates
//     only under a timing tolerance, and only when slower.
//   * measures — the other measurements (kb, per_s, ratio): recorded and
//     listed, never gating.
//
// Two gates share the flattener, one delta classifier, one bounds check
// and one exit rule (GateReport::pass):
//
//   * gate_baseline — current vs a committed baseline, key by key.  A
//     report absent from one side is listed once as missing/new (subset
//     runs are compared against the full baseline); a metric that vanished
//     from a report both sides have gates; timing and measure keys on one
//     side only are listed as missing/new and never gate.
//   * gate_history  — the newest ledger run and its predecessors sharing
//     the comparison key host | compiler | flags | effective_threads |
//     telemetry_period_steps (series sampled under different thread counts
//     or sampling rates are never compared): median-based step detection
//     over the window, plus the classifier's one-sided findings between
//     the newest run and the one before it.
//
// The bounds check runs on the newest/current metrics in both modes: any
// "<base>_floor"/"<base>_ceiling" metric pair must bracket the measured
// "<base>" (or, matching the congestion benches, "<base>_peak_congestion"
// or "<base>" with "congestion" → "peak_congestion"), and any
// "*_in_bounds" metric must equal 1.  This keeps the analytic
// floor/ceiling argument attached to every gate.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hyperpath::obs {

class JsonValue;
class JsonWriter;

/// One flattened run: a suite document, a bare report, or a ledger line.
struct LedgerEntry {
  std::string timestamp;
  std::string git_sha;
  std::string hostname;
  std::string compiler;
  std::string flags;
  std::string build_type;
  int effective_threads = 0;
  /// Telemetry sampling period the suite ran with; 0 = telemetry off.
  int telemetry_period_steps = 0;
  std::map<std::string, double> metrics;   // "<bench>.<metric>" -> value
  std::map<std::string, double> timings;   // "<bench>.<span>" -> seconds
  std::map<std::string, double> measures;  // "<bench>.<name>" -> value
};

/// Series sampled under different configurations are incomparable; this is
/// the grouping key ("host|compiler|flags|threads=N|period=P").
std::string comparison_key(const LedgerEntry& e);

/// Parses one ledger line; nullopt (with `error`) on shape mismatch.
std::optional<LedgerEntry> parse_ledger_entry(const JsonValue& doc,
                                              std::string* error = nullptr);

/// Emits `e` as one object value into an open writer.
void write_ledger_entry(JsonWriter& w, const LedgerEntry& e);

/// Flattens a suite document (object with "reports") or a bare report
/// (object with "experiment", a one-report suite) into a LedgerEntry:
/// provenance from "meta", numeric metrics, profiler timings and typed
/// measurements ({"value":..,"unit":..}; unit "s" joins the timings).
/// `telemetry_period_steps` is stamped by the caller (the suite itself
/// does not know it).  Throws hyperpath::Error on any other shape.
LedgerEntry flatten_suite(const JsonValue& doc);

enum class SeriesKind { kMetric, kTiming, kMeasure };

enum class DeltaKind {
  kOk,        // metric equal, or timing within tolerance
  kChanged,   // metric differs (gating)
  kSlower,    // timing slower beyond tolerance (gating)
  kFaster,    // timing faster beyond tolerance
  kVanished,  // metric of a report both sides have, absent now (gating)
  kMissing,   // report, timing or measure on the baseline side only
  kNew,       // report or key on the current side only
};

const char* to_string(DeltaKind kind);
/// kChanged, kSlower and kVanished: the kinds that fail a gate.
bool gates(DeltaKind kind);

struct Delta {
  std::string name;  // "<bench>.<key>", or "<bench>" for a whole report
  SeriesKind series = SeriesKind::kMetric;
  double baseline = 0;
  double current = 0;
  /// (current - baseline) / max(|baseline|, epsilon); 0 for one-sided.
  double rel_change = 0;
  DeltaKind kind = DeltaKind::kOk;
};

/// A detected step change in one series.
struct TrendFinding {
  std::string name;
  bool is_timing = false;
  std::size_t split = 0;   // first analyzed-run index after the step
  double median_before = 0;
  double median_after = 0;
  double rel_change = 0;   // (after - before) / max(|before|, eps)
};

struct GateOptions {
  /// Relative tolerance for timings; negative = timings never gate.
  double timing_tol = -1.0;
  /// History mode: newest comparable runs to analyze.
  std::size_t window = 8;
};

struct GateReport {
  std::string key;          // history: comparison key analyzed
  std::size_t runs = 0;     // runs compared (2 in baseline mode)
  std::size_t series = 0;   // history: metric series examined
  std::vector<Delta> deltas;
  std::vector<TrendFinding> steps;  // history: metric + slower timing steps
  std::vector<std::string> bounds_violations;
  /// History: comparison keys in the ledger excluded from the analysis.
  std::vector<std::string> skipped_keys;

  std::size_t count(DeltaKind kind) const;
  /// Metric comparisons made (and timing ones, under a tolerance).
  std::size_t compared() const;
  /// Changed, slower or vanished deltas, steps, bounds violations, and
  /// fewer than 2 runs.
  std::size_t failures() const;
  /// The exit rule both modes share.
  bool pass() const { return failures() == 0; }
};

/// Baseline mode: `current` against a committed `baseline`.
GateReport gate_baseline(const LedgerEntry& current,
                         const LedgerEntry& baseline,
                         const GateOptions& options = {});

/// History mode over a ledger in append order (the newest entry picks the
/// comparison key).  Step detection covers series present in every run of
/// the window; a series that appears later is not a step.
GateReport gate_history(const std::vector<LedgerEntry>& entries,
                        const GateOptions& options = {});

/// Largest median step in `values` (chronological): max over split points
/// k of |median(values[k..]) - median(values[..k])| relative to the
/// earlier median.  Returns nullopt for fewer than 2 values or when no
/// split exceeds `tol`.
std::optional<TrendFinding> detect_step(const std::string& name,
                                        const std::vector<double>& values,
                                        double tol);

}  // namespace hyperpath::obs
