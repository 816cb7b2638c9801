#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

// --- peak memory -------------------------------------------------------------

bool PeakMemory::reset() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

namespace {

/// A "<key>:  <kib> kB" line of /proc/self/status, in MB.
std::optional<double> status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) != 0 || line.size() <= len ||
        line[len] != ':') {
      continue;
    }
    std::istringstream fields(line.substr(len + 1));
    double kib = 0;
    if (fields >> kib && kib > 0) return kib / 1024.0;
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::optional<double> PeakMemory::peak_mb() { return status_mb("VmHWM"); }
std::optional<double> PeakMemory::rss_mb() { return status_mb("VmRSS"); }

StagePeak::StagePeak() {
  if (PeakMemory::reset()) base_mb_ = PeakMemory::rss_mb();
}

std::optional<double> StagePeak::rise_mb() const {
  const std::optional<double> peak = PeakMemory::peak_mb();
  if (!base_mb_ || !peak) return std::nullopt;
  return *peak - *base_mb_;
}

std::optional<double> touched_peak_rise_mb(std::size_t mib) {
  const StagePeak stage;
  const std::size_t bytes = mib << 20;
  std::vector<unsigned char> block(bytes);
  // Write one non-zero byte per 4 KiB page so every page is resident.
  for (std::size_t i = 0; i < bytes; i += 4096) block[i] = 1;
  return stage.rise_mb();
}

// --- spans -------------------------------------------------------------------

int Spans::open(const std::string& name) {
  if (!enabled_) return -1;
  const double now = std::chrono::duration<double>(Clock::now() - epoch_).count();
  spans_.push_back(Span{name, current_, now, now});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Spans::close(int index) {
  if (index < 0) return;
  spans_[index].end_s =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  current_ = spans_[index].parent;
}

double Spans::self_seconds(std::size_t index) const {
  const Span& s = spans_[index];
  double covered = 0;
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<int>(index)) {
      covered += spans_[i].end_s - spans_[i].start_s;
    }
  }
  return (s.end_s - s.start_s) - covered;
}

std::string Spans::to_json(const std::string& meta_json) const {
  std::ostringstream o;
  o.precision(9);
  o << "{\"meta\":" << meta_json << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    o << (i ? "," : "") << "{\"name\":" << json_string(s.name)
      << ",\"parent\":" << s.parent << ",\"start_s\":" << s.start_s
      << ",\"end_s\":" << s.end_s << ",\"self_s\":" << self_seconds(i) << "}";
  }
  o << "]}\n";
  return o.str();
}

ScopedSpan::ScopedSpan(Spans& spans, const std::string& name)
    : spans_(spans), index_(spans.open(name)), t0_(Clock::now()) {}

double ScopedSpan::stop() {
  if (seconds_ < 0) {
    seconds_ = seconds_since(t0_);
    spans_.close(index_);
  }
  return seconds_;
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- ledger ------------------------------------------------------------------

void Ledger::record(std::uint64_t operations, bool ok, const std::string& what) {
  attempted_ += operations;
  if (ok) return;
  failed_ += operations;
  if (first_failure_.empty()) first_failure_ = what;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

// --- metric table ------------------------------------------------------------

void MetricTable::add(std::string name, double value, std::string unit,
                      std::string note) {
  metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void MetricTable::absent(std::string name, std::string unit, std::string why) {
  metrics_.push_back(
      {std::move(name), std::nan(""), std::move(unit), "absent: " + why});
}

void MetricTable::print(const char* title) const {
  std::printf("== %s\n", title);
  for (const Metric& m : metrics_) {
    if (std::isnan(m.value)) {
      std::printf("  %-32s %16s %-6s %s\n", m.name.c_str(), "-",
                  m.unit.c_str(), m.note.c_str());
    } else {
      std::printf("  %-32s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
}

std::string MetricTable::json() const {
  std::string out = "{";
  char buf[64];
  bool first = true;
  for (const Metric& m : metrics_) {
    if (std::isnan(m.value)) continue;
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
