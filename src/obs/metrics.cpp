#include "obs/metrics.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace hyperpath::obs {

FixedHistogram::FixedHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  HP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
           "histogram bounds must be ascending");
}

FixedHistogram FixedHistogram::exponential(int buckets) {
  HP_CHECK(buckets >= 1, "histogram needs at least one bucket");
  std::vector<double> bounds(buckets);
  double b = 1;
  for (int i = 0; i < buckets; ++i, b *= 2) bounds[i] = b;
  return FixedHistogram(std::move(bounds));
}

void FixedHistogram::observe(double v) {
  if (counts_.empty()) counts_.assign(1, 0);  // default-constructed: 1 bucket
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  max_ = std::max(max_, v);
}

void FixedHistogram::merge(const FixedHistogram& other) {
  if (other.count_ == 0 && other.bounds_.empty()) return;  // nothing to add
  if (count_ == 0 && bounds_.empty()) {
    *this = other;
    return;
  }
  HP_CHECK(bounds_ == other.bounds_,
           "histogram merge requires identical bounds");
  if (counts_.empty()) counts_.assign(bounds_.size() + 1, 0);
  if (!other.counts_.empty()) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double FixedHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  double cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (rank <= next) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = i < bounds_.size() ? bounds_[i] : max_;
      if (upper <= lower) return std::min(upper, max_);
      const double frac = (rank - cum) / (next - cum);
      return std::min(lower + (upper - lower) * frac, max_);
    }
    cum = next;
  }
  return max_;
}

void FixedHistogram::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("count", count_);
  w.field("sum", sum_);
  w.field("mean", mean());
  w.field("max", max_);
  w.key("bounds").begin_array();
  for (double b : bounds_) w.value(b);
  w.end_array();
  w.key("counts").begin_array();
  for (std::uint64_t c : counts_) w.value(c);
  w.end_array();
  w.end_object();
}

void UtilizationProfile::add(double u) {
  sum_ += u;
  ++steps_;
  if (slots_.empty() || slots_.back().count == granularity_) {
    if (slots_.size() == kMaxSlots) {
      // Merge adjacent slot pairs; the profile halves, granularity doubles.
      for (std::size_t i = 0; i + 1 < slots_.size(); i += 2) {
        slots_[i / 2] = {slots_[i].sum + slots_[i + 1].sum,
                         slots_[i].count + slots_[i + 1].count};
      }
      slots_.resize(kMaxSlots / 2);
      granularity_ *= 2;
    }
    slots_.push_back({});
  }
  slots_.back().sum += u;
  ++slots_.back().count;
}

std::vector<double> UtilizationProfile::profile() const {
  std::vector<double> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    out.push_back(s.count ? s.sum / s.count : 0.0);
  }
  return out;
}

void UtilizationProfile::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("steps", steps_);
  w.field("average", average());
  w.field("granularity", granularity_);
  w.key("profile").begin_array();
  for (double v : profile()) w.value(v);
  w.end_array();
  w.end_object();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry;  // never destroyed
  return *r;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::scoped_lock lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second->value() : 0;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name,
                                           std::vector<double> bounds) {
  std::scoped_lock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<FixedHistogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  std::scoped_lock lock(mu_);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g->value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    h->write_json(w);
  }
  w.end_object();
  // The process-wide span tree rides along in every metrics document;
  // empty object when nothing was profiled.
  w.key("profile");
  Profiler::global().write_json(w);
  w.end_object();
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

void MetricsRegistry::reset() {
  std::scoped_lock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace hyperpath::obs
