// Shared table printer and JSON exporter for the benchmark harness.
//
// Every bench binary regenerates one experiment row from DESIGN.md's index:
// it prints the measured table (the paper's "shape" — who wins, by what
// factor, where bounds sit) and then runs google-benchmark timings for the
// construction/simulation kernels.
//
// JSON export: constructing a bench::Report strips a `--json [path]` flag
// from argv (before benchmark::Initialize sees it).  When the flag is
// present the report writes one machine-readable record — params, metrics,
// typed measurements, every registered table, and the profiler's span
// timings — to `path` (default BENCH_<experiment>.json), so perf
// trajectories can be tracked across runs instead of eyeballed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/run_metadata.hpp"

namespace hyperpath::bench {

class Table {
 public:
  explicit Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  template <typename... Cells>
  void row(Cells... cells) {
    std::vector<std::string> r;
    (r.push_back(to_cell(cells)), ...);
    rows_.push_back(std::move(r));
  }

  const std::string& title() const { return title_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  void print() const {
    // Width covers the widest row, not just the header, so a row with more
    // cells than columns renders under an empty heading instead of indexing
    // past the width vector; short rows are padded when printed.
    std::size_t ncols = columns_.size();
    for (const auto& r : rows_) ncols = std::max(ncols, r.size());
    std::vector<std::size_t> width(ncols, 0);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      width[c] = columns_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    std::printf("\n== %s ==\n", title_.c_str());
    print_row(columns_, width);
    std::string sep;
    for (std::size_t c = 0; c < width.size(); ++c) {
      sep += std::string(width[c] + 2, '-');
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& r : rows_) print_row(r, width);
    std::printf("\n");
  }

 private:
  static std::string to_cell(const char* s) { return s; }
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3g", v);
    return buf;
  }
  template <typename T>
  static std::string to_cell(T v) {
    return std::to_string(v);
  }

  static void print_row(const std::vector<std::string>& r,
                        const std::vector<std::size_t>& width) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const char* cell = c < r.size() ? r[c].c_str() : "";
      std::printf("%-*s  ", static_cast<int>(width[c]), cell);
    }
    std::printf("\n");
  }

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Unit of a measurement: hand-timed seconds, KiB, a rate per second, or a
/// dimensionless ratio.
enum class Unit { kSeconds, kKib, kPerSecond, kRatio };

inline const char* unit_name(Unit u) {
  switch (u) {
    case Unit::kSeconds: return "s";
    case Unit::kKib: return "kb";
    case Unit::kPerSecond: return "per_s";
    case Unit::kRatio: return "ratio";
  }
  return "?";
}

/// Machine-readable record of one bench run:
///   {"experiment":..., "meta":{git sha, compiler, flags, host, ...},
///    "params":{...}, "metrics":{...},
///    "measurements":{"name":{"value":...,"unit":"s|kb|per_s|ratio"}},
///    "tables":[{"title":..., "columns":[...], "rows":[[...]]}],
///    "timings":{"span/path":{"seconds":...,"count":...}},
///    "profile":{span tree}}
/// Written on destruction when `--json [path]` was passed.  Metrics are
/// deterministic and gated exactly; measurements and timings are
/// machine-dependent.
///
/// Constructing a Report also enables the global span profiler, so the
/// bench's own HP_PROFILE_SPAN regions and the spans the library brackets
/// land in "timings" (Profiler::totals) and the "profile" tree without
/// per-bench wiring.
class Report {
 public:
  /// Strips `--json`, `--json <path>` or `--json=<path>` from argv.
  Report(std::string experiment, int* argc, char** argv)
      : experiment_(std::move(experiment)) {
    obs::Profiler::global().set_enabled(true);
    for (int i = 1; i < *argc; ++i) {
      const char* a = argv[i];
      int consumed = 0;
      if (!std::strncmp(a, "--json=", 7)) {
        path_ = a + 7;
        consumed = 1;
      } else if (!std::strcmp(a, "--json")) {
        if (i + 1 < *argc && argv[i + 1][0] != '-') {
          path_ = argv[i + 1];
          consumed = 2;
        } else {
          consumed = 1;
        }
      }
      if (consumed == 0) continue;
      enabled_ = true;
      if (path_.empty()) path_ = "BENCH_" + experiment_ + ".json";
      for (int j = i; j + consumed < *argc; ++j) argv[j] = argv[j + consumed];
      *argc -= consumed;
      break;
    }
  }

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  ~Report() {
    if (enabled_) write();
  }

  bool enabled() const { return enabled_; }
  const std::string& path() const { return path_; }

  void param(const std::string& key, const std::string& v) {
    params_.emplace_back(key, "\"" + obs::json_escape(v) + "\"");
  }
  void param(const std::string& key, const char* v) {
    param(key, std::string(v));
  }
  template <typename T>
  void param(const std::string& key, T v) {
    params_.emplace_back(key, number(v));
  }

  template <typename T>
  void metric(const std::string& key, T v) {
    metrics_.emplace_back(key, number(v));
  }

  /// A machine-dependent number that is not a profiler span: a hand-timed
  /// region, a footprint, a rate or a ratio.
  void measure(const std::string& key, double v, Unit unit) {
    measures_.emplace_back(key, "{\"value\":" + number(v) +
                                    ",\"unit\":\"" + unit_name(unit) +
                                    "\"}");
  }

  /// Registers a table for export (call after the table's rows are final).
  void table(const Table& t) { tables_.push_back(t); }

  void write() const {
    obs::JsonWriter w;
    w.begin_object();
    w.field("experiment", experiment_);
    w.key("meta");
    obs::RunMetadata::collect().write_json(w);
    w.key("params").begin_object();
    for (const auto& [k, v] : params_) w.key(k).raw_value(v);
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto& [k, v] : metrics_) w.key(k).raw_value(v);
    w.end_object();
    w.key("measurements").begin_object();
    for (const auto& [k, v] : measures_) w.key(k).raw_value(v);
    w.end_object();
    w.key("tables").begin_array();
    for (const Table& t : tables_) {
      w.begin_object();
      w.field("title", t.title());
      w.key("columns").begin_array();
      for (const auto& c : t.columns()) w.value(c);
      w.end_array();
      w.key("rows").begin_array();
      for (const auto& r : t.rows()) {
        w.begin_array();
        for (const auto& cell : r) w.value(cell);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("timings");
    obs::Profiler::global().write_timings_json(w);
    w.key("profile");
    obs::Profiler::global().write_json(w);
    w.end_object();

    if (std::FILE* f = std::fopen(path_.c_str(), "w")) {
      std::fputs(w.str().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
    }
  }

 private:
  template <typename T>
  static std::string number(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      // %.17g would print "nan"/"inf" — not JSON tokens.  Match
      // JsonWriter::value(double): non-finite becomes null.
      if (!std::isfinite(static_cast<double>(v))) return "null";
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(v));
      return buf;
    } else {
      return std::to_string(v);
    }
  }

  std::string experiment_;
  std::string path_;
  bool enabled_ = false;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> measures_;
  std::vector<Table> tables_;
};

}  // namespace hyperpath::bench
