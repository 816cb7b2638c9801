#include "obs/regress.hpp"

#include <algorithm>
#include <cmath>

#include "base/error.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath::obs {

namespace {

constexpr double kEpsilon = 1e-12;

double rel_change(double baseline, double current) {
  return (current - baseline) / std::max(std::abs(baseline), kEpsilon);
}

/// name → report object, accepting a suite or a bare report.
JsonValue::Object normalize(const JsonValue& doc) {
  HP_CHECK(doc.is_object(), "bench document is not a JSON object");
  if (const JsonValue* reports = doc.find("reports")) {
    HP_CHECK(reports->is_object(), "\"reports\" is not a JSON object");
    return reports->as_object();
  }
  const JsonValue* name = doc.find("experiment");
  HP_CHECK(name && name->is_string(),
           "document has neither \"reports\" nor \"experiment\"");
  return {{name->as_string(), doc}};
}

const JsonValue* find_report(const JsonValue::Object& reports,
                             const std::string& name) {
  for (const auto& [k, v] : reports) {
    if (k == name) return &v;
  }
  return nullptr;
}

void compare_metrics(const std::string& report, const JsonValue* cur,
                     const JsonValue* base, double tol,
                     std::vector<Delta>& out) {
  if (!base || !base->is_object()) return;
  for (const auto& [key, bval] : base->as_object()) {
    if (!bval.is_number()) continue;
    const JsonValue* cval = cur ? cur->find(key) : nullptr;
    if (!cval || !cval->is_number()) {
      out.push_back({report, key, false, bval.as_number(), 0, 0,
                     DeltaKind::kVanished});
      continue;
    }
    const double b = bval.as_number();
    const double c = cval->as_number();
    const double rel = rel_change(b, c);
    out.push_back({report, key, false, b, c, rel,
                   std::abs(rel) > tol ? DeltaKind::kRegression
                                       : DeltaKind::kOk});
  }
  if (!cur || !cur->is_object()) return;
  for (const auto& [key, cval] : cur->as_object()) {
    if (!cval.is_number() || base->find(key)) continue;
    out.push_back(
        {report, key, false, 0, cval.as_number(), 0, DeltaKind::kNew});
  }
}

double timing_seconds(const JsonValue& t) {
  const JsonValue* s = t.find("seconds");
  return s && s->is_number() ? s->as_number() : 0;
}

void compare_timings(const std::string& report, const JsonValue* cur,
                     const JsonValue* base, double tol,
                     std::vector<Delta>& out) {
  if (tol < 0 || !base || !base->is_object()) return;
  for (const auto& [key, bval] : base->as_object()) {
    if (!bval.is_object()) continue;
    const double b = timing_seconds(bval);
    const JsonValue* cval = cur ? cur->find(key) : nullptr;
    if (!cval || !cval->is_object()) {
      out.push_back({report, key, true, b, 0, 0, DeltaKind::kMissing});
      continue;
    }
    const double c = timing_seconds(*cval);
    const double rel = rel_change(b, c);
    DeltaKind kind = DeltaKind::kOk;
    if (rel > tol) kind = DeltaKind::kRegression;       // slower
    else if (rel < -tol) kind = DeltaKind::kImprovement;  // faster
    out.push_back({report, key, true, b, c, rel, kind});
  }
}

}  // namespace

const char* to_string(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kOk: return "ok";
    case DeltaKind::kRegression: return "REGRESSION";
    case DeltaKind::kImprovement: return "improvement";
    case DeltaKind::kMissing: return "missing";
    case DeltaKind::kNew: return "new";
    case DeltaKind::kVanished: return "VANISHED";
  }
  return "?";
}

std::size_t CompareResult::regressions() const {
  std::size_t n = 0;
  for (const Delta& d : deltas) {
    n += (d.kind == DeltaKind::kRegression || d.kind == DeltaKind::kVanished);
  }
  return n;
}

std::size_t CompareResult::compared() const {
  std::size_t n = 0;
  for (const Delta& d : deltas) {
    n += (d.kind == DeltaKind::kOk || d.kind == DeltaKind::kRegression ||
          d.kind == DeltaKind::kImprovement);
  }
  return n;
}

CompareResult compare_suites(const JsonValue& current,
                             const JsonValue& baseline,
                             const CompareOptions& options) {
  const JsonValue::Object cur = normalize(current);
  const JsonValue::Object base = normalize(baseline);

  CompareResult result;
  for (const auto& [name, breport] : base) {
    const JsonValue* creport = find_report(cur, name);
    if (!creport) {
      result.deltas.push_back(
          {name, "", false, 0, 0, 0, DeltaKind::kMissing});
      continue;
    }
    compare_metrics(name, creport->find("metrics"), breport.find("metrics"),
                    options.metric_tol, result.deltas);
    compare_timings(name, creport->find("timings"), breport.find("timings"),
                    options.timing_tol, result.deltas);
  }
  for (const auto& member : cur) {
    if (!find_report(base, member.first)) {
      result.deltas.push_back(
          {member.first, "", false, 0, 0, 0, DeltaKind::kNew});
    }
  }
  return result;
}

}  // namespace hyperpath::obs
