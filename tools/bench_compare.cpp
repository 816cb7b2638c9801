// bench_compare — diffs a current BENCH_SUITE.json (or a single
// BENCH_<name>.json report) against a committed baseline.
//
//   bench_compare CURRENT BASELINE [--metric-tol X] [--timing-tol X]
//                 [--report-only]
//
// Deterministic metrics gate at --metric-tol (default 0: exact — any
// deviation in either direction is a regression, and so is a metric that
// vanished from a report the current suite still has; a whole report
// absent from CURRENT is only counted as missing).  Wall-clock timings are
// skipped unless --timing-tol is given; then only slower regresses.
// Prints a human table plus one machine-readable verdict line:
//
//   BENCH_COMPARE: PASS|FAIL regressions=N compared=M missing=K new=J
//
// Exits nonzero on regression unless --report-only (the CI soft-gate mode,
// which always exits 0 once both inputs load).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/json_parse.hpp"
#include "obs/regress.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s CURRENT BASELINE [--metric-tol X] [--timing-tol X] "
               "[--report-only]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string current_path, baseline_path;
  hyperpath::obs::CompareOptions options;
  bool report_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metric-tol" && i + 1 < argc) {
      options.metric_tol = std::atof(argv[++i]);
    } else if (arg == "--timing-tol" && i + 1 < argc) {
      options.timing_tol = std::atof(argv[++i]);
    } else if (arg == "--report-only") {
      report_only = true;
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
      return 2;
    } else if (current_path.empty()) {
      current_path = arg;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (current_path.empty() || baseline_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  hyperpath::obs::JsonParseError err;
  const auto current = hyperpath::obs::json_parse_file(current_path, &err);
  if (!current) {
    std::fprintf(stderr, "bench_compare: cannot load %s (offset %zu: %s)\n",
                 current_path.c_str(), err.offset, err.message.c_str());
    return 2;
  }
  const auto baseline = hyperpath::obs::json_parse_file(baseline_path, &err);
  if (!baseline) {
    std::fprintf(stderr, "bench_compare: cannot load %s (offset %zu: %s)\n",
                 baseline_path.c_str(), err.offset, err.message.c_str());
    return 2;
  }

  const auto result =
      hyperpath::obs::compare_suites(*current, *baseline, options);

  std::size_t missing = 0, added = 0;
  std::printf("%-14s %-36s %14s %14s %9s  %s\n", "report", "key", "baseline",
              "current", "rel", "verdict");
  for (const auto& d : result.deltas) {
    using hyperpath::obs::DeltaKind;
    if (d.kind == DeltaKind::kMissing) ++missing;
    if (d.kind == DeltaKind::kNew) ++added;
    // Keep the table focused: only print in-tolerance rows when nothing is
    // wrong with them is still useful context, but cap the noise by
    // skipping kOk timings.
    if (d.kind == DeltaKind::kOk && d.is_timing) continue;
    std::printf("%-14s %-36s %14.6g %14.6g %8.2f%%  %s\n", d.report.c_str(),
                d.key.c_str(), d.baseline, d.current, 100.0 * d.rel_change,
                hyperpath::obs::to_string(d.kind));
  }

  const bool pass = result.pass();
  std::printf("BENCH_COMPARE: %s regressions=%zu compared=%zu missing=%zu "
              "new=%zu\n",
              pass ? "PASS" : "FAIL", result.regressions(), result.compared(),
              missing, added);
  if (report_only) return 0;
  return pass ? 0 : 1;
}
