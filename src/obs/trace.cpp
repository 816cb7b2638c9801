#include "obs/trace.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "obs/json.hpp"

namespace hyperpath::obs {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRelease: return "release";
    case TraceEventKind::kTransmit: return "transmit";
    case TraceEventKind::kStall: return "stall";
    case TraceEventKind::kQueueDepth: return "queue_depth";
    case TraceEventKind::kArrive: return "arrive";
    case TraceEventKind::kDrop: return "drop";
    case TraceEventKind::kWormStart: return "worm_start";
    case TraceEventKind::kWormDone: return "worm_done";
    case TraceEventKind::kFault: return "fault";
    case TraceEventKind::kRepair: return "repair";
    case TraceEventKind::kRetransmit: return "retransmit";
  }
  return "unknown";
}

bool trace_event_kind_from_string(std::string_view name,
                                  TraceEventKind* out) {
  for (std::size_t i = 0; i < kNumTraceEventKinds; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

RingBufferSink::RingBufferSink(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void RingBufferSink::on_events(std::span<const TraceEvent> events) {
  for (const TraceEvent& e : events) {
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
    size_ = std::min(size_ + 1, ring_.size());
    ++total_;
    ++by_kind_[static_cast<std::size_t>(e.kind)];
  }
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "w")) {
  HP_CHECK(file_ != nullptr, "cannot open trace file " + path);
}

JsonlFileSink::~JsonlFileSink() {
  if (file_) std::fclose(file_);
}

void JsonlFileSink::on_events(std::span<const TraceEvent> events) {
  for (const TraceEvent& e : events) {
    std::fprintf(file_, "{\"step\":%d,\"kind\":\"%s\"", e.step,
                 to_string(e.kind));
    if (e.packet != TraceEvent::kNoPacket) {
      std::fprintf(file_, ",\"packet\":%u", e.packet);
    }
    if (e.link != TraceEvent::kNoLink) {
      std::fprintf(file_, ",\"link\":%llu",
                   static_cast<unsigned long long>(e.link));
    }
    std::fprintf(file_, ",\"value\":%llu}\n",
                 static_cast<unsigned long long>(e.value));
    ++total_;
  }
}

void JsonlFileSink::write_meta(int dims, std::uint64_t packets) {
  HP_CHECK(total_ == 0, "trace meta must precede every event");
  std::fprintf(file_, "{\"kind\":\"meta\",\"dims\":%d,\"packets\":%llu}\n",
               dims, static_cast<unsigned long long>(packets));
}

void JsonlFileSink::flush() { std::fflush(file_); }

void StepTrace::end_step() {
  if (!enabled()) return;
  // Sort the out-of-order buckets; note whether all events share one step
  // (a sorted bucket spans one step iff its ends do).
  bool any = false;
  bool one_step = true;
  std::int32_t step = 0;
  for (std::vector<TraceEvent>& bucket : by_kind_) {
    if (bucket.empty()) continue;
    if (!std::is_sorted(bucket.begin(), bucket.end())) {
      std::sort(bucket.begin(), bucket.end());
    }
    if (!any) step = bucket.front().step;
    any = true;
    one_step &= bucket.front().step == step && bucket.back().step == step;
  }
  if (!any) return;
  if (one_step) {
    for (std::vector<TraceEvent>& bucket : by_kind_) {
      if (bucket.empty()) continue;
      sink_->on_events(bucket);
      bucket.clear();
    }
    return;
  }
  for (std::vector<TraceEvent>& bucket : by_kind_) {
    merged_.insert(merged_.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  std::sort(merged_.begin(), merged_.end());
  sink_->on_events(merged_);
  merged_.clear();
}

void StepTrace::finish() {
  end_step();
  // Free the step buffers before the sink's flush, which may build large
  // structures of its own (FlightRecorder lays out its hop arena).
  for (std::vector<TraceEvent>& bucket : by_kind_) {
    std::vector<TraceEvent>().swap(bucket);
  }
  std::vector<TraceEvent>().swap(merged_);
  if (enabled()) sink_->flush();
}

}  // namespace hyperpath::obs
