#include "obs/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "base/error.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/run_metadata.hpp"

namespace hyperpath::obs {

namespace {

std::mutex& provider_mu() {
  static std::mutex m;
  return m;
}

WorkerStatsProvider& provider_slot() {
  static WorkerStatsProvider p;
  return p;
}

}  // namespace

FixedHistogram telemetry_depth_histogram() {
  return FixedHistogram::exponential(kTelemetryDepthBuckets);
}

std::uint64_t rss_now_kb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096) / 1024;
#else
  return 0;
#endif
}

// ---------------------------------------------------------------------------
// TelemetryBus
// ---------------------------------------------------------------------------

TelemetryBus& TelemetryBus::global() {
  static TelemetryBus* bus = [] {
    auto* b = new TelemetryBus;  // never destroyed
    if (const char* env = std::getenv("HYPERPATH_TELEMETRY")) {
      Config c;
      if (std::strcmp(env, "ring") != 0) c.jsonl_path = env;
      if (const char* p = std::getenv("HYPERPATH_TELEMETRY_PERIOD")) {
        const int v = std::atoi(p);
        if (v > 0) c.period_steps = v;
      }
      b->enable(std::move(c));
    }
    return b;
  }();
  return *bus;
}

TelemetryBus::~TelemetryBus() {
  std::scoped_lock lock(mu_);
  close_locked();
}

void TelemetryBus::set_worker_stats_provider(WorkerStatsProvider provider) {
  std::scoped_lock lock(provider_mu());
  provider_slot() = std::move(provider);
}

void TelemetryBus::enable(Config config) {
  HP_CHECK(config.period_steps > 0, "telemetry period must be positive");
  HP_CHECK(config.ring_capacity > 0, "telemetry ring needs at least 1 slot");
  std::scoped_lock lock(mu_);
  close_locked();
  config_ = std::move(config);
  ring_.clear();
  ring_next_ = 0;
  seq_ = 0;
  t0_ = std::chrono::steady_clock::now();
  if (!config_.jsonl_path.empty()) {
    file_ = std::fopen(config_.jsonl_path.c_str(), "w");
    HP_CHECK(file_ != nullptr,
             "cannot open telemetry stream " + config_.jsonl_path);
    write_header_locked();
  }
  // The live throughput gauge is created here, never inside sample() — the
  // sampling path must not grow the registry (see the non-creating-reads
  // comment there), so the registry contents are identical at any period.
  pps_gauge_ = &MetricsRegistry::global().gauge("sim.packet_steps_per_sec");
  pps_gauge_->set(0);
  prev_tx_ = 0;
  prev_wall_ = 0;
  have_prev_ = false;
  period_.store(config_.period_steps, std::memory_order_relaxed);
}

void TelemetryBus::disable() {
  std::scoped_lock lock(mu_);
  period_.store(0, std::memory_order_relaxed);
  close_locked();
}

void TelemetryBus::close_locked() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void TelemetryBus::sample(SimTelemetry&& sim) {
  // Snapshot the pool provider outside any bus state: the provider locks
  // the par layer's own mutex and must never nest inside ours in a fixed
  // order other than bus -> par.
  WorkerStatsProvider provider;
  {
    std::scoped_lock plock(provider_mu());
    provider = provider_slot();
  }

  std::scoped_lock lock(mu_);
  if (period_.load(std::memory_order_relaxed) <= 0) return;

  TelemetrySample s;
  s.seq = seq_++;
  s.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0_)
                       .count();
  s.sim = std::move(sim);
  // Live throughput: simulated packet-steps/second since the previous
  // sample (whole-run average at the first).  A transmissions counter
  // below the previous sample's means a new run started; its cumulative
  // count is the delta.  Derived from values already being sampled and
  // never fed back into the simulation, so the zero-perturbation contract
  // holds at any period.
  {
    const std::uint64_t tx = s.sim.transmissions;
    const std::uint64_t dtx =
        (have_prev_ && tx >= prev_tx_) ? tx - prev_tx_ : tx;
    const double dwall =
        have_prev_ ? s.wall_seconds - prev_wall_ : s.wall_seconds;
    s.packet_steps_per_sec =
        dwall > 0 ? static_cast<double>(dtx) / dwall : 0.0;
    prev_tx_ = tx;
    prev_wall_ = s.wall_seconds;
    have_prev_ = true;
    if (pps_gauge_ != nullptr) pps_gauge_->set(s.packet_steps_per_sec);
  }
  if (provider) s.par = provider();
  // Non-creating reads: sampling must not grow the registry, or a traced
  // bench run would export different metric documents with telemetry on.
  const auto& reg = MetricsRegistry::global();
  s.fragments_delivered = reg.counter_value("recovery.fragments_delivered");
  s.fragments_lost = reg.counter_value("recovery.fragments_lost");
  s.retransmissions = reg.counter_value("recovery.retransmissions");
  s.messages_complete = reg.counter_value("recovery.messages_complete");
  s.rss_kb = rss_now_kb();

  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(s);
  } else {
    ring_[ring_next_] = s;
    ring_next_ = (ring_next_ + 1) % config_.ring_capacity;
  }
  if (file_ != nullptr) write_sample_locked(s);
}

std::vector<TelemetrySample> TelemetryBus::snapshot() const {
  std::scoped_lock lock(mu_);
  std::vector<TelemetrySample> out;
  out.reserve(ring_.size());
  // ring_next_ is the oldest slot once the ring wrapped (it is only
  // advanced on overwrite), and 0 before that.
  const std::size_t n = ring_.size();
  const std::size_t start = n < config_.ring_capacity ? 0 : ring_next_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % n]);
  }
  return out;
}

std::uint64_t TelemetryBus::total_samples() const {
  std::scoped_lock lock(mu_);
  return seq_;
}

void TelemetryBus::write_header_locked() {
  const RunMetadata meta = RunMetadata::collect();
  JsonWriter w;
  w.begin_object();
  w.field("kind", "telemetry_meta");
  w.field("version", std::uint64_t{1});
  w.field("period_steps", config_.period_steps);
  w.field("ring_capacity", static_cast<std::uint64_t>(config_.ring_capacity));
  w.field("effective_threads", meta.effective_threads);
  w.field("git_sha", meta.git_sha);
  w.field("hostname", meta.hostname);
  w.field("timestamp", meta.timestamp);
  w.field("compiler", meta.compiler);
  w.end_object();
  std::fprintf(file_, "%s\n", w.str().c_str());
  std::fflush(file_);
}

void TelemetryBus::write_sample_locked(const TelemetrySample& s) {
  JsonWriter w;
  w.begin_object();
  w.field("kind", "sample");
  w.field("seq", s.seq);
  w.field("step", s.sim.step);
  w.field("wall_seconds", s.wall_seconds);
  w.field("active_links", s.sim.active_links);
  w.field("queued_packets", s.sim.queued_packets);
  w.field("max_queue_depth", s.sim.max_queue_depth);
  w.field("undelivered", s.sim.undelivered);
  w.field("transmissions", s.sim.transmissions);
  w.field("packet_steps_per_sec", s.packet_steps_per_sec);
  w.key("depth_hist");
  s.sim.depth_hist.write_json(w);
  w.key("par").begin_object();
  w.field("regions", s.par.regions);
  w.field("tasks", s.par.tasks);
  w.field("steals", s.par.steals);
  w.key("busy_seconds").begin_array();
  for (double b : s.par.busy_seconds) w.value(b);
  w.end_array();
  w.end_object();
  w.key("recovery").begin_object();
  w.field("fragments_delivered", s.fragments_delivered);
  w.field("fragments_lost", s.fragments_lost);
  w.field("retransmissions", s.retransmissions);
  w.field("messages_complete", s.messages_complete);
  w.end_object();
  w.field("rss_kb", s.rss_kb);
  w.end_object();
  std::fprintf(file_, "%s\n", w.str().c_str());
  // Flush per sample so `hyperpath_cli watch --follow` reads a live file;
  // samples are rare (once per period), so this costs nothing measurable.
  std::fflush(file_);
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

namespace {

bool prom_name_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool prom_name_char(char c) {
  return prom_name_start(c) || std::isdigit(static_cast<unsigned char>(c));
}
bool prom_label_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool prom_label_char(char c) {
  return prom_label_start(c) || std::isdigit(static_cast<unsigned char>(c));
}

/// Registry names and span paths ("recovery.fragments_lost",
/// "simulate/sim/store_forward") mapped to the Prometheus charset,
/// namespaced under hyperpath_.
std::string prom_sanitize(const std::string& name) {
  std::string out = "hyperpath_";
  for (char c : name) out.push_back(prom_name_char(c) ? c : '_');
  return out;
}

std::string prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::expose_prometheus() const {
  std::scoped_lock lock(mu_);
  std::string out;
  // First-wins on sanitized-name collisions, in a fixed section order
  // (counters, gauges, histograms, profiler spans) so the exposition is
  // deterministic for a given registry state.
  std::set<std::string> emitted;
  const auto claim = [&](const std::string& name) {
    return emitted.insert(name).second;
  };

  for (const auto& [name, c] : counters_) {
    const std::string p = prom_sanitize(name) + "_total";
    if (!claim(p)) continue;
    out += "# HELP " + p + " Counter " + name + "\n";
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = prom_sanitize(name);
    if (!claim(p)) continue;
    out += "# HELP " + p + " Gauge " + name + "\n";
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + prom_double(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = prom_sanitize(name);
    if (!claim(p) || !claim(p + "_bucket") || !claim(p + "_sum") ||
        !claim(p + "_count")) {
      continue;
    }
    out += "# HELP " + p + " Histogram " + name + "\n";
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cum = 0;
    const auto& bounds = h->bounds();
    const auto& counts = h->counts();
    for (std::size_t i = 0; i < bounds.size() && i < counts.size(); ++i) {
      cum += counts[i];
      out += p + "_bucket{le=\"" + prom_double(bounds[i]) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h->count()) + "\n";
    out += p + "_sum " + prom_double(h->sum()) + "\n";
    out += p + "_count " + std::to_string(h->count()) + "\n";
  }
  for (const auto& [path, span] : Profiler::global().totals()) {
    const std::string p = prom_sanitize(path);
    const std::string secs = p + "_seconds_total";
    const std::string calls = p + "_calls_total";
    if (!claim(secs) || !claim(calls)) continue;
    out += "# HELP " + secs + " Accumulated span seconds " + path + "\n";
    out += "# TYPE " + secs + " counter\n";
    out += secs + " " + prom_double(span.seconds) + "\n";
    out += "# HELP " + calls + " Span count " + path + "\n";
    out += "# TYPE " + calls + " counter\n";
    out += calls + " " + std::to_string(span.count) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exposition validator (promtool text-format rules, in-tree)
// ---------------------------------------------------------------------------

namespace {

struct PromGroup {
  bool has_type = false;
  bool has_help = false;
  std::string type;
  bool saw_samples = false;
  bool closed = false;  // another metric's samples appeared after ours
  std::set<std::string> series;
  // Histogram bookkeeping (appearance order).
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative count)
  bool has_inf = false;
  double inf_count = 0;
  bool has_count = false;
  double count_value = 0;
};

bool valid_metric_name(const std::string& s) {
  if (s.empty() || !prom_name_start(s[0])) return false;
  for (char c : s) {
    if (!prom_name_char(c)) return false;
  }
  return true;
}

bool parse_prom_float(const std::string& s, double* out) {
  if (s == "+Inf" || s == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

}  // namespace

bool validate_prometheus_text(const std::string& text, std::string* error) {
  std::map<std::string, PromGroup> groups;
  std::string current;  // metric family whose samples are in flight
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;

  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  };

  // The family a sample name belongs to: histogram series use the declared
  // base name so foo_bucket/foo_sum/foo_count group under foo.
  const auto family_of = [&](const std::string& name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::size_t n = std::strlen(suffix);
      if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0) {
        const std::string base = name.substr(0, name.size() - n);
        const auto it = groups.find(base);
        if (it != groups.end() && it->second.type == "histogram") return base;
      }
    }
    return name;
  };

  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Leading whitespace is not allowed on sample lines by the exposition
    // format; tolerate fully blank lines only.
    if (line.empty()) continue;

    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, word;
      ls >> hash >> word;
      if (word != "TYPE" && word != "HELP") continue;  // plain comment
      std::string name;
      ls >> name;
      if (!valid_metric_name(name)) {
        return fail("invalid metric name in # " + word + ": '" + name + "'");
      }
      PromGroup& g = groups[name];
      if (word == "TYPE") {
        std::string type;
        ls >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return fail("unknown TYPE '" + type + "' for " + name);
        }
        if (g.has_type) return fail("second TYPE line for " + name);
        if (g.saw_samples) return fail("TYPE after samples of " + name);
        g.has_type = true;
        g.type = type;
      } else {
        if (g.has_help) return fail("second HELP line for " + name);
        g.has_help = true;
      }
      continue;
    }

    // Sample line:  name[{labels}] value [timestamp]
    std::size_t i = 0;
    while (i < line.size() && prom_name_char(line[i])) ++i;
    const std::string name = line.substr(0, i);
    if (!valid_metric_name(name)) return fail("invalid sample metric name");

    std::string labels_canonical;
    double le = 0;
    bool has_le = false;
    if (i < line.size() && line[i] == '{') {
      ++i;
      std::vector<std::pair<std::string, std::string>> labels;
      while (i < line.size() && line[i] != '}') {
        std::size_t j = i;
        while (j < line.size() && prom_label_char(line[j])) ++j;
        const std::string lname = line.substr(i, j - i);
        if (lname.empty() || !prom_label_start(lname[0])) {
          return fail("invalid label name");
        }
        if (j >= line.size() || line[j] != '=') return fail("expected '='");
        ++j;
        if (j >= line.size() || line[j] != '"') {
          return fail("label value must be quoted");
        }
        ++j;
        std::string val;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\') {
            ++j;
            if (j >= line.size() ||
                (line[j] != '\\' && line[j] != '"' && line[j] != 'n')) {
              return fail("invalid escape in label value");
            }
          }
          val.push_back(line[j]);
          ++j;
        }
        if (j >= line.size()) return fail("unterminated label value");
        ++j;  // closing quote
        labels.emplace_back(lname, val);
        if (j < line.size() && line[j] == ',') ++j;
        i = j;
      }
      if (i >= line.size()) return fail("unterminated label set");
      ++i;  // '}'
      std::sort(labels.begin(), labels.end());
      for (std::size_t k = 0; k + 1 < labels.size(); ++k) {
        if (labels[k].first == labels[k + 1].first) {
          return fail("duplicate label '" + labels[k].first + "'");
        }
      }
      for (const auto& [k, v] : labels) {
        labels_canonical += k + "=" + v + ";";
        if (k == "le") {
          if (!parse_prom_float(v, &le)) return fail("unparsable le value");
          has_le = true;
        }
      }
    }

    if (i >= line.size() || line[i] != ' ') {
      return fail("expected space before value");
    }
    std::istringstream rest(line.substr(i + 1));
    std::string value_str, ts_str, extra;
    rest >> value_str;
    double value = 0;
    if (!parse_prom_float(value_str, &value)) {
      return fail("unparsable sample value '" + value_str + "'");
    }
    if (rest >> ts_str) {
      double ts = 0;
      char* end = nullptr;
      ts = std::strtod(ts_str.c_str(), &end);
      (void)ts;
      if (end != ts_str.c_str() + ts_str.size()) {
        return fail("unparsable timestamp");
      }
      if (rest >> extra) return fail("trailing data after timestamp");
    }

    const std::string fam = family_of(name);
    if (fam != current) {
      if (groups.count(fam) != 0 && groups[fam].closed) {
        return fail("samples of " + fam + " are not contiguous");
      }
      if (!current.empty()) groups[current].closed = true;
      current = fam;
    }
    PromGroup& g = groups[fam];
    g.saw_samples = true;
    if (!g.series.insert(name + "{" + labels_canonical + "}").second) {
      return fail("duplicate sample " + name + "{" + labels_canonical + "}");
    }

    if (g.type == "histogram") {
      if (name == fam + "_bucket") {
        if (!has_le) return fail("histogram bucket without le label");
        if (std::isinf(le) && le > 0) {
          g.has_inf = true;
          g.inf_count = value;
        }
        if (!g.buckets.empty()) {
          if (le <= g.buckets.back().first) {
            return fail("histogram buckets of " + fam +
                        " not in ascending le order");
          }
          if (value < g.buckets.back().second) {
            return fail("histogram bucket counts of " + fam +
                        " not cumulative");
          }
        }
        g.buckets.emplace_back(le, value);
      } else if (name == fam + "_count") {
        g.has_count = true;
        g.count_value = value;
      }
    }
  }

  lineno = 0;  // final checks are whole-document, not line-anchored
  for (const auto& [name, g] : groups) {
    if (g.type == "histogram" && !g.buckets.empty()) {
      if (!g.has_inf) {
        return fail("histogram " + name + " lacks a le=\"+Inf\" bucket");
      }
      if (g.has_count && g.inf_count != g.count_value) {
        return fail("histogram " + name + ": +Inf bucket (" +
                    prom_double(g.inf_count) + ") != _count (" +
                    prom_double(g.count_value) + ")");
      }
    }
  }
  return true;
}

}  // namespace hyperpath::obs
