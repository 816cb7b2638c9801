// bench_gate — the one benchmark gate, in two modes.
//
//   bench_gate CURRENT BASELINE [--timing-tol X] [--json FILE]
//   bench_gate --history LEDGER [--window N] [--timing-tol X] [--json FILE]
//
// Baseline mode diffs a BENCH_SUITE.json (or a bare BENCH_<name>.json
// report) against a committed baseline.  History mode reads the JSONL
// ledger bench_runner --history appends to and analyzes the newest run
// with its comparable predecessors (--window, default 8).  Both flatten
// their inputs the same way, classify deltas the same way, check the
// analytic floor/ceiling bounds on the newest metrics, and share one exit
// rule (see obs/trend.hpp): exit 1 on any metric change, vanished metric,
// bounds violation, or a history with fewer than 2 comparable runs.
// Timings (profiler spans and "s" measurements) gate only under
// --timing-tol, and only when slower; keys on one side only are listed as
// missing/new and never gate.  Prints every non-ok finding and one verdict
// line:
//
//   BENCH_GATE: PASS|FAIL runs=R compared=M changed=C vanished=V slower=S
//               steps=T bounds=B missing=K new=J
//
// --json FILE writes the same findings as one JSON document.  Exit 2 on
// usage or input errors.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/trend.hpp"

namespace {

using hyperpath::obs::Delta;
using hyperpath::obs::DeltaKind;
using hyperpath::obs::GateReport;
using hyperpath::obs::LedgerEntry;
using hyperpath::obs::TrendFinding;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s CURRENT BASELINE [--timing-tol X] [--json FILE]\n"
      "       %s --history LEDGER [--window N] [--timing-tol X] "
      "[--json FILE]\n"
      "  --history LEDGER  analyze a bench_runner --history ledger\n"
      "  --window N        newest comparable runs to analyze (default 8)\n"
      "  --timing-tol X    let timings slower by more than X (relative) "
      "gate\n"
      "  --json FILE       write the findings as JSON\n",
      argv0, argv0);
}

bool load(const std::string& path, LedgerEntry* out) {
  hyperpath::obs::JsonParseError err;
  const auto doc = hyperpath::obs::json_parse_file(path, &err);
  if (!doc) {
    std::fprintf(stderr, "bench_gate: cannot load %s (offset %zu: %s)\n",
                 path.c_str(), err.offset, err.message.c_str());
    return false;
  }
  try {
    *out = hyperpath::obs::flatten_suite(*doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_gate: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

bool load_ledger(const std::string& path, std::vector<LedgerEntry>* out) {
  hyperpath::obs::JsonlReader reader(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "bench_gate: cannot read %s\n", path.c_str());
    return false;
  }
  hyperpath::obs::JsonValue doc;
  while (reader.next(&doc)) {
    std::string err;
    if (auto e = hyperpath::obs::parse_ledger_entry(doc, &err)) {
      out->push_back(std::move(*e));
    } else {
      std::fprintf(stderr, "bench_gate: %s line %zu skipped: %s\n",
                   path.c_str(), reader.line(), err.c_str());
    }
  }
  if (reader.failed()) {
    std::fprintf(stderr, "bench_gate: %s line %zu: %s\n", path.c_str(),
                 reader.line(), reader.error().message.c_str());
    return false;
  }
  return true;
}

const char* series_name(hyperpath::obs::SeriesKind s) {
  switch (s) {
    case hyperpath::obs::SeriesKind::kMetric: return "metric";
    case hyperpath::obs::SeriesKind::kTiming: return "timing";
    case hyperpath::obs::SeriesKind::kMeasure: return "measure";
  }
  return "?";
}

void write_json(const std::string& path, const GateReport& r) {
  hyperpath::obs::JsonWriter w;
  w.begin_object();
  w.field("kind", "bench_gate");
  w.field("pass", r.pass());
  w.field("comparison_key", r.key);
  w.field("runs", static_cast<std::uint64_t>(r.runs));
  w.field("compared", static_cast<std::uint64_t>(r.compared()));
  w.key("deltas").begin_array();
  for (const Delta& d : r.deltas) {
    if (d.kind == DeltaKind::kOk) continue;
    w.begin_object();
    w.field("name", d.name);
    w.field("series", series_name(d.series));
    w.field("kind", hyperpath::obs::to_string(d.kind));
    w.field("baseline", d.baseline);
    w.field("current", d.current);
    w.end_object();
  }
  w.end_array();
  w.key("steps").begin_array();
  for (const TrendFinding& f : r.steps) {
    w.begin_object();
    w.field("name", f.name);
    w.field("timing", f.is_timing);
    w.field("median_before", f.median_before);
    w.field("median_after", f.median_after);
    w.field("rel_change", f.rel_change);
    w.end_object();
  }
  w.end_array();
  w.key("bounds_violations").begin_array();
  for (const std::string& v : r.bounds_violations) w.value(v);
  w.end_array();
  w.key("skipped_keys").begin_array();
  for (const std::string& k : r.skipped_keys) w.value(k);
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string history_path, json_path;
  hyperpath::obs::GateOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--history" && i + 1 < argc) {
      history_path = argv[++i];
    } else if (arg == "--window" && i + 1 < argc) {
      options.window = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--timing-tol" && i + 1 < argc) {
      options.timing_tol = std::atof(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  const bool history = !history_path.empty();
  if (positional.size() != (history ? 0u : 2u) || options.window < 2) {
    usage(argv[0]);
    return 2;
  }

  GateReport report;
  if (history) {
    std::vector<LedgerEntry> entries;
    if (!load_ledger(history_path, &entries)) return 2;
    report = hyperpath::obs::gate_history(entries, options);
    std::printf("ledger: %zu run(s) in %s\n", entries.size(),
                history_path.c_str());
    std::printf("comparison key: %s\n",
                report.key.empty() ? "(empty ledger)" : report.key.c_str());
    std::printf("analyzed: %zu run(s), %zu metric series (window %zu)\n",
                report.runs, report.series, options.window);
    for (const std::string& key : report.skipped_keys) {
      std::printf("skipped incomparable key: %s\n", key.c_str());
    }
  } else {
    LedgerEntry current, baseline;
    if (!load(positional[0], &current) || !load(positional[1], &baseline)) {
      return 2;
    }
    report = hyperpath::obs::gate_baseline(current, baseline, options);
  }

  // Listed findings first, gating ones last, next to the verdict.
  for (const bool gating : {false, true}) {
    for (const Delta& d : report.deltas) {
      if (d.kind == DeltaKind::kOk ||
          hyperpath::obs::gates(d.kind) != gating) {
        continue;
      }
      std::printf("%-9s %-8s %-52s %14.6g %14.6g %+9.2f%%\n",
                  hyperpath::obs::to_string(d.kind), series_name(d.series),
                  d.name.c_str(), d.baseline, d.current,
                  100.0 * d.rel_change);
    }
  }
  for (const TrendFinding& f : report.steps) {
    std::printf("STEP      %-8s %-52s median %g -> %g (%+.1f%%) at run %zu\n",
                f.is_timing ? "timing" : "metric", f.name.c_str(),
                f.median_before, f.median_after, 100.0 * f.rel_change,
                f.split);
  }
  for (const std::string& v : report.bounds_violations) {
    std::printf("BOUNDS    %s\n", v.c_str());
  }
  if (report.runs < 2) {
    std::printf("need at least 2 comparable runs, got %zu\n", report.runs);
  }
  if (!json_path.empty()) write_json(json_path, report);

  std::printf("BENCH_GATE: %s runs=%zu compared=%zu changed=%zu vanished=%zu "
              "slower=%zu steps=%zu bounds=%zu missing=%zu new=%zu\n",
              report.pass() ? "PASS" : "FAIL", report.runs, report.compared(),
              report.count(DeltaKind::kChanged),
              report.count(DeltaKind::kVanished),
              report.count(DeltaKind::kSlower), report.steps.size(),
              report.bounds_violations.size(),
              report.count(DeltaKind::kMissing),
              report.count(DeltaKind::kNew));
  return report.pass() ? 0 : 1;
}
