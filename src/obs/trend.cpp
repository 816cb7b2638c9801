#include "obs/trend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "base/error.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath::obs {

namespace {

constexpr double kEpsilon = 1e-12;

double rel_change(double baseline, double current) {
  return (current - baseline) / std::max(std::abs(baseline), kEpsilon);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string string_field(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

int int_field(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? static_cast<int>(v->as_number())
                                        : 0;
}

double number_field(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0;
}

void read_number_map(const JsonValue* obj, std::map<std::string, double>* out) {
  if (obj == nullptr || !obj->is_object()) return;
  for (const auto& [key, val] : obj->as_object()) {
    if (val.is_number()) (*out)[key] = val.as_number();
  }
}

void write_number_map(JsonWriter& w, const std::map<std::string, double>& m) {
  w.begin_object();
  for (const auto& [key, val] : m) w.field(key, val);
  w.end_object();
}

void read_provenance(const JsonValue& doc, LedgerEntry* e) {
  e->timestamp = string_field(doc, "timestamp");
  e->git_sha = string_field(doc, "git_sha");
  e->hostname = string_field(doc, "hostname");
  e->compiler = string_field(doc, "compiler");
  e->flags = string_field(doc, "flags");
  e->build_type = string_field(doc, "build_type");
  e->effective_threads = int_field(doc, "effective_threads");
}

/// Report a flattened "<bench>.<key>" belongs to.
std::string report_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::set<std::string> reports_of(const LedgerEntry& e) {
  std::set<std::string> out;
  for (const auto* m : {&e.metrics, &e.timings, &e.measures}) {
    for (const auto& entry : *m) out.insert(report_of(entry.first));
  }
  return out;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() > n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

std::string comparison_key(const LedgerEntry& e) {
  return e.hostname + "|" + e.compiler + "|" + e.flags +
         "|threads=" + std::to_string(e.effective_threads) +
         "|period=" + std::to_string(e.telemetry_period_steps);
}

std::optional<LedgerEntry> parse_ledger_entry(const JsonValue& doc,
                                              std::string* error) {
  if (!doc.is_object()) {
    if (error != nullptr) *error = "ledger entry is not a JSON object";
    return std::nullopt;
  }
  const std::string kind = string_field(doc, "kind");
  if (!kind.empty() && kind != "bench_run") {
    if (error != nullptr) *error = "unexpected ledger kind '" + kind + "'";
    return std::nullopt;
  }
  LedgerEntry e;
  read_provenance(doc, &e);
  e.telemetry_period_steps = int_field(doc, "telemetry_period_steps");
  read_number_map(doc.find("metrics"), &e.metrics);
  read_number_map(doc.find("timings"), &e.timings);
  read_number_map(doc.find("measures"), &e.measures);
  if (e.metrics.empty()) {
    if (error != nullptr) *error = "ledger entry carries no metrics";
    return std::nullopt;
  }
  return e;
}

void write_ledger_entry(JsonWriter& w, const LedgerEntry& e) {
  w.begin_object();
  w.field("kind", "bench_run");
  w.field("timestamp", e.timestamp);
  w.field("git_sha", e.git_sha);
  w.field("hostname", e.hostname);
  w.field("compiler", e.compiler);
  w.field("flags", e.flags);
  w.field("build_type", e.build_type);
  w.field("effective_threads", e.effective_threads);
  w.field("telemetry_period_steps", e.telemetry_period_steps);
  w.key("metrics");
  write_number_map(w, e.metrics);
  w.key("timings");
  write_number_map(w, e.timings);
  w.key("measures");
  write_number_map(w, e.measures);
  w.end_object();
}

LedgerEntry flatten_suite(const JsonValue& doc) {
  HP_CHECK(doc.is_object(), "bench document is not a JSON object");
  JsonValue::Object reports;
  if (const JsonValue* r = doc.find("reports")) {
    HP_CHECK(r->is_object(), "\"reports\" is not a JSON object");
    reports = r->as_object();
  } else {
    const JsonValue* name = doc.find("experiment");
    HP_CHECK(name != nullptr && name->is_string(),
             "document has neither \"reports\" nor \"experiment\"");
    reports = {{name->as_string(), doc}};
  }

  LedgerEntry e;
  if (const JsonValue* meta = doc.find("meta")) read_provenance(*meta, &e);
  for (const auto& [name, report] : reports) {
    const std::string prefix = name + ".";
    if (const JsonValue* metrics = report.find("metrics")) {
      std::map<std::string, double> m;
      read_number_map(metrics, &m);
      for (const auto& [key, v] : m) e.metrics[prefix + key] = v;
    }
    if (const JsonValue* timings = report.find("timings");
        timings != nullptr && timings->is_object()) {
      for (const auto& [key, val] : timings->as_object()) {
        e.timings[prefix + key] = number_field(val, "seconds");
      }
    }
    if (const JsonValue* measures = report.find("measurements");
        measures != nullptr && measures->is_object()) {
      for (const auto& [key, val] : measures->as_object()) {
        const JsonValue* v = val.find("value");
        if (v == nullptr || !v->is_number()) continue;
        auto& into = string_field(val, "unit") == "s" ? e.timings : e.measures;
        into[prefix + key] = v->as_number();
      }
    }
  }
  return e;
}

const char* to_string(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kOk: return "ok";
    case DeltaKind::kChanged: return "CHANGED";
    case DeltaKind::kSlower: return "SLOWER";
    case DeltaKind::kFaster: return "faster";
    case DeltaKind::kVanished: return "VANISHED";
    case DeltaKind::kMissing: return "missing";
    case DeltaKind::kNew: return "new";
  }
  return "?";
}

bool gates(DeltaKind kind) {
  return kind == DeltaKind::kChanged || kind == DeltaKind::kSlower ||
         kind == DeltaKind::kVanished;
}

namespace {

// The delta classifier: every key of `current` against `baseline`.
// Timings are compared only when `timing_tol` >= 0; measures never.
std::vector<Delta> classify(const LedgerEntry& current,
                            const LedgerEntry& baseline, double timing_tol) {
  const std::set<std::string> cur_reports = reports_of(current);
  const std::set<std::string> base_reports = reports_of(baseline);
  std::vector<Delta> out;
  // A report on one side only is listed once, not key by key.
  for (const std::string& r : base_reports) {
    if (!cur_reports.count(r)) {
      out.push_back({r, SeriesKind::kMetric, 0, 0, 0, DeltaKind::kMissing});
    }
  }
  for (const std::string& r : cur_reports) {
    if (!base_reports.count(r)) {
      out.push_back({r, SeriesKind::kMetric, 0, 0, 0, DeltaKind::kNew});
    }
  }

  const auto series = [&](SeriesKind kind,
                          const std::map<std::string, double>& cur,
                          const std::map<std::string, double>& base) {
    for (const auto& [name, b] : base) {
      if (!cur_reports.count(report_of(name))) continue;
      const auto it = cur.find(name);
      if (it == cur.end()) {
        out.push_back({name, kind, b, 0, 0,
                       kind == SeriesKind::kMetric ? DeltaKind::kVanished
                                                   : DeltaKind::kMissing});
        continue;
      }
      const double c = it->second;
      const double rel = rel_change(b, c);
      DeltaKind verdict = DeltaKind::kOk;
      if (kind == SeriesKind::kMetric) {
        if (c != b) verdict = DeltaKind::kChanged;
      } else if (kind == SeriesKind::kTiming && timing_tol >= 0) {
        if (rel > timing_tol) verdict = DeltaKind::kSlower;
        else if (rel < -timing_tol) verdict = DeltaKind::kFaster;
      } else {
        continue;  // ungated series: only one-sided keys are listed
      }
      out.push_back({name, kind, b, c, rel, verdict});
    }
    for (const auto& [name, c] : cur) {
      if (base.count(name) || !base_reports.count(report_of(name))) continue;
      out.push_back({name, kind, 0, c, 0, DeltaKind::kNew});
    }
  };
  series(SeriesKind::kMetric, current.metrics, baseline.metrics);
  series(SeriesKind::kTiming, current.timings, baseline.timings);
  series(SeriesKind::kMeasure, current.measures, baseline.measures);
  return out;
}

// Floor/ceiling and *_in_bounds violations among `metrics`.
std::vector<std::string> check_bounds(
    const std::map<std::string, double>& metrics) {
  std::vector<std::string> out;
  for (const auto& [name, floor_v] : metrics) {
    if (!ends_with(name, "_floor")) continue;
    const std::string base = name.substr(0, name.size() - 6);
    // Measured series: "<base>"; else the congestion benches' conventions,
    // "<...>_peak_congestion" bracketed by "<...>_congestion_floor" or by
    // "<...>_floor" (bench_oracle's q24_floor).
    std::vector<std::string> candidates = {base, base + "_peak_congestion"};
    if (const std::size_t pos = base.rfind("congestion");
        pos != std::string::npos) {
      candidates.push_back(base);
      candidates.back().replace(pos, std::strlen("congestion"),
                                "peak_congestion");
    }
    auto measured = metrics.end();
    for (const std::string& c : candidates) {
      measured = metrics.find(c);
      if (measured != metrics.end()) break;
    }
    if (measured == metrics.end()) continue;
    const double v = measured->second;
    if (v < floor_v) {
      out.push_back(measured->first + " = " + std::to_string(v) +
                    " below analytic floor " + name + " = " +
                    std::to_string(floor_v));
    }
    const auto ceil = metrics.find(base + "_ceiling");
    if (ceil != metrics.end() && v > ceil->second) {
      out.push_back(measured->first + " = " + std::to_string(v) +
                    " above ceiling " + ceil->first + " = " +
                    std::to_string(ceil->second));
    }
  }
  for (const auto& [name, v] : metrics) {
    if (ends_with(name, "_in_bounds") && v != 1.0) {
      out.push_back(name + " = " + std::to_string(v) + " (expected 1)");
    }
  }
  return out;
}

}  // namespace

std::size_t GateReport::count(DeltaKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(deltas.begin(), deltas.end(),
                    [kind](const Delta& d) { return d.kind == kind; }));
}

std::size_t GateReport::compared() const {
  return count(DeltaKind::kOk) + count(DeltaKind::kChanged) +
         count(DeltaKind::kSlower) + count(DeltaKind::kFaster);
}

std::size_t GateReport::failures() const {
  const auto gating =
      std::count_if(deltas.begin(), deltas.end(),
                    [](const Delta& d) { return gates(d.kind); });
  return static_cast<std::size_t>(gating) + steps.size() +
         bounds_violations.size() + (runs < 2 ? 1 : 0);
}

GateReport gate_baseline(const LedgerEntry& current,
                         const LedgerEntry& baseline,
                         const GateOptions& options) {
  GateReport report;
  report.runs = 2;
  report.deltas = classify(current, baseline, options.timing_tol);
  report.bounds_violations = check_bounds(current.metrics);
  return report;
}

std::optional<TrendFinding> detect_step(const std::string& name,
                                        const std::vector<double>& values,
                                        double tol) {
  const std::size_t n = values.size();
  if (n < 2) return std::nullopt;
  TrendFinding best;
  double best_abs = tol;
  bool found = false;
  for (std::size_t k = 1; k < n; ++k) {
    const double m1 =
        median(std::vector<double>(values.begin(), values.begin() + k));
    const double m2 =
        median(std::vector<double>(values.begin() + k, values.end()));
    const double rel = (m2 - m1) / std::max(std::abs(m1), kEpsilon);
    if (std::abs(rel) > best_abs) {
      best_abs = std::abs(rel);
      best = {name, false, k, m1, m2, rel};
      found = true;
    }
  }
  if (!found) return std::nullopt;
  return best;
}

GateReport gate_history(const std::vector<LedgerEntry>& entries,
                        const GateOptions& options) {
  GateReport report;
  if (entries.empty()) return report;

  report.key = comparison_key(entries.back());
  std::vector<const LedgerEntry*> group;
  std::set<std::string> skipped;
  for (const LedgerEntry& e : entries) {
    const std::string key = comparison_key(e);
    if (key == report.key) {
      group.push_back(&e);
    } else {
      skipped.insert(key);
    }
  }
  report.skipped_keys.assign(skipped.begin(), skipped.end());
  if (group.size() > options.window) {
    group.erase(group.begin(),
                group.end() - static_cast<std::ptrdiff_t>(options.window));
  }
  report.runs = group.size();
  const LedgerEntry& newest = *group.back();
  report.bounds_violations = check_bounds(newest.metrics);
  if (group.size() < 2) return report;

  // Steps over series present in every run of the window: any metric step
  // (tolerance 0), and timing steps that are slower beyond the tolerance.
  const auto scan = [&](bool timings, double tol) {
    const auto& first = timings ? group.front()->timings
                                : group.front()->metrics;
    for (const auto& [name, v0] : first) {
      std::vector<double> values{v0};
      for (std::size_t i = 1; i < group.size(); ++i) {
        const auto& m = timings ? group[i]->timings : group[i]->metrics;
        const auto it = m.find(name);
        if (it == m.end()) break;
        values.push_back(it->second);
      }
      if (values.size() != group.size()) continue;
      if (!timings) ++report.series;
      auto f = detect_step(name, values, tol);
      if (!f || (timings && f->rel_change < 0)) continue;
      f->is_timing = timings;
      report.steps.push_back(std::move(*f));
    }
  };
  scan(/*timings=*/false, 0.0);
  if (options.timing_tol >= 0) scan(/*timings=*/true, options.timing_tol);

  // Keys that appeared or vanished since the previous comparable run; the
  // two-sided comparisons are the step detector's job.
  for (Delta& d : classify(newest, *group[group.size() - 2], -1.0)) {
    if (d.kind == DeltaKind::kVanished || d.kind == DeltaKind::kMissing ||
        d.kind == DeltaKind::kNew) {
      report.deltas.push_back(std::move(d));
    }
  }
  return report;
}

}  // namespace hyperpath::obs
