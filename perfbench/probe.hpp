// Measurement toolkit of the perfbench harness: per-stage peak memory,
// in-memory layer spans, order statistics, the correctness ledger and the
// metric table the run prints.  Nothing here calls the hyperpath library;
// workloads.cpp owns every call into it.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- peak memory -------------------------------------------------------------

/// Per-stage peak resident set: reset() writes "5" to /proc/self/clear_refs,
/// which sets the kernel's VmHWM back to the current RSS, and peak_mb() reads
/// VmHWM.  Unlike a getrusage ru_maxrss delta, a stage that stays under an
/// earlier stage's peak still reads its own peak.  When either file is
/// unusable the calls report nothing and the metric is left out.
class PeakMemory {
 public:
  /// True when the reset succeeded; peak_mb() is meaningful only then.
  static bool reset();
  static std::optional<double> peak_mb();  // VmHWM
  static std::optional<double> rss_mb();   // VmRSS
};

/// The peak one stage adds on top of what was resident when it began:
/// construction resets VmHWM and notes VmRSS; rise_mb() is VmHWM minus that.
class StagePeak {
 public:
  StagePeak();
  std::optional<double> rise_mb() const;

 private:
  std::optional<double> base_mb_;
};

/// Allocates `mib` MiB, touches every page and reports how far the stage
/// peak rose; nullopt when the helper is unavailable.
std::optional<double> touched_peak_rise_mb(std::size_t mib);

// --- spans -------------------------------------------------------------------

/// Layer spans recorded by the benchmark around its calls into the library.
/// Spans live in memory and are written once, when the run ends.  A span's
/// layer is the module prefix of its name ("sim.run" -> "sim").
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;  // index into spans(), -1 for a root span
    double start_s = 0;
    double end_s = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Turns recording off and on (the span-overhead comparison toggles it).
  void set_enabled(bool on) { enabled_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

  int open(const std::string& name);
  void close(int index);

  /// Duration of `index` minus the time its direct children cover.
  double self_seconds(std::size_t index) const;

  /// {"spans":[{"name","parent","start_s","end_s","self_s"},...]} plus
  /// `meta_json` (an already-encoded object) under "meta".
  std::string to_json(const std::string& meta_json) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; records nothing when the recorder is disabled.  stop() returns
/// the span's wall time, measured whether or not recording is on, so a stage
/// is timed by the same clock reads in traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& name);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration.
  double stop();

 private:
  Spans& spans_;
  int index_ = -1;
  Clock::time_point t0_;
  double seconds_ = -1;
};

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted copy).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- correctness ledger ------------------------------------------------------

/// Operations attempted and failed.  An operation fails when any of the
/// checks made on its output fails; the first failure is kept for the log.
class Ledger {
 public:
  void record(std::uint64_t operations, bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double error_rate() const {
    return attempted_ ? static_cast<double>(failed_) / attempted_ : 1.0;
  }
  const std::string& first_failure() const { return first_failure_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

// --- metric table ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count, derivation or why it is absent
};

class MetricTable {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "");
  /// Records a metric that could not be measured; it is printed with the
  /// reason and left out of the JSON result, never reported as 0.
  void absent(std::string name, std::string unit, std::string why);

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Human-readable table on stdout (name, value, unit, note).
  void print(const char* title) const;

  /// {"name":{"value":v,"unit":u},...} over the measured metrics.
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
};

/// JSON string literal with escaping.
std::string json_string(const std::string& s);

}  // namespace perfbench
