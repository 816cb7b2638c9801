#include "obs/flight.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath::obs {

void FlightRecorder::on_events(std::span<const TraceEvent> events) {
  // A canonical batch lists its releases first, and each opens a flight:
  // size the record and packet tables for all of them at once instead of
  // through repeated doubling (a phase releases every packet at step 0).
  std::size_t releases = 0;
  std::uint32_t max_packet = 0;
  for (; releases < events.size() &&
         events[releases].kind == TraceEventKind::kRelease;
       ++releases) {
    max_packet = std::max(max_packet, events[releases].packet);
  }
  if (releases > 0) {
    if (records_.size() + releases > records_.capacity()) {
      records_.reserve(
          std::max(records_.size() + releases, 2 * records_.capacity()));
    }
    if (max_packet >= packets_.size()) packets_.resize(max_packet + 1);
  }
  // Within a kind the packet ids are scattered (events go in link order):
  // fetch each packet's slot a few events ahead to overlap the misses.
  constexpr std::size_t kAhead = 8;
  const std::size_t n = events.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      const std::uint32_t ahead = events[i + kAhead].packet;
      if (ahead < packets_.size()) __builtin_prefetch(&packets_[ahead]);
    }
    add(events[i]);
  }
}

void FlightRecorder::note_inconsistency(const TraceEvent& e,
                                        const char* what) {
  ++inconsistencies_;
  if (first_inconsistency_.empty()) {
    first_inconsistency_ = std::string(what) + " (step " +
                           std::to_string(e.step) + ", kind " +
                           to_string(e.kind) + ", packet " +
                           std::to_string(e.packet) + ")";
  }
}

FlightRecord& FlightRecorder::open_flight(std::uint32_t packet,
                                          std::int32_t release_step) {
  if (packet >= packets_.size()) packets_.resize(packet + 1);
  HP_CHECK(records_.size() < kNoFlight, "flight recorder: too many flights");
  PacketSlot& slot = packets_[packet];
  FlightRecord rec;
  rec.packet = packet;
  rec.generation = slot.generations++;
  max_generation_ = std::max(max_generation_, rec.generation);
  rec.release_step = release_step;
  slot.open = static_cast<std::uint32_t>(records_.size());
  if ((records_.size() >> kRegionShift) == hop_log_.size()) {
    // Address space for four hops a flight: only the pages hops are
    // written to become resident, and longer flights fall back to doubling.
    hop_log_.emplace_back().reserve(kRegionFlights * 4);
  }
  slot.link = TraceEvent::kNoLink;
  slot.enqueue_step = -1;
  slot.hops = 0;
  records_.push_back(rec);
  return records_.back();
}

LinkUse& FlightRecorder::link_slot(std::uint64_t link) {
  if (link >= links_.size()) links_.resize(link + 1);
  return links_[link];
}

void FlightRecorder::lay_out_hops() const {
  if (!unlaid_hops_) return;
  unlaid_hops_ = false;
  hop_regions_.resize(hop_log_.size());
  std::vector<std::size_t> cursor;
  for (std::size_t g = 0; g < hop_log_.size(); ++g) {
    std::vector<LoggedHop>& log = hop_log_[g];
    if (log.empty()) continue;
    // A counting sort by flight: count the region's logged hops per
    // record, give each record a run holding its previous layout followed
    // by its logged hops (event order), then scatter the log into the runs.
    const std::size_t first = g << kRegionShift;
    const std::size_t last = std::min(first + kRegionFlights, records_.size());
    cursor.assign(last - first, 0);
    for (const LoggedHop& h : log) ++cursor[h.flight - first];
    std::vector<HopSpan> region(hop_regions_[g].size() + log.size());
    HopSpan* out = region.data();
    for (std::size_t r = first; r < last; ++r) {
      FlightRecord& rec = records_[r];
      const std::size_t count = rec.hops.size() + cursor[r - first];
      HopSpan* const run = out;
      out = std::copy(rec.hops.begin(), rec.hops.end(), out);
      cursor[r - first] = static_cast<std::size_t>(out - region.data());
      rec.hops = {run, count};
      out = run + count;
    }
    for (const LoggedHop& h : log) {
      region[cursor[h.flight - first]++] = {h.link, h.enqueue_step,
                                            h.transmit_step, h.depth_seen};
    }
    hop_regions_[g] = std::move(region);
    std::vector<LoggedHop>().swap(log);  // free it, not just clear it
  }
}

std::uint32_t FlightRecorder::open_flight_of(std::uint32_t packet) const {
  return packet < packets_.size() ? packets_[packet].open : kNoFlight;
}

void FlightRecorder::add(const TraceEvent& e) {
  any_events_ = true;
  ++events_seen_;
  last_step_ = std::max(last_step_, e.step);
  switch (e.kind) {
    case TraceEventKind::kRelease: {
      if (open_flight_of(e.packet) != kNoFlight) {
        // A release while a flight is open never happens in well-formed
        // streams; close the stale record so the new one can proceed.
        note_inconsistency(e, "release while a flight is already open");
      }
      open_flight(e.packet, e.step);
      packets_[e.packet].link = e.link;
      packets_[e.packet].enqueue_step = e.step;
      ++releases_;
      break;
    }
    case TraceEventKind::kTransmit: {
      ++transmissions_;
      LinkUse& lu = link_slot(e.link);
      ++lu.transmissions;
      if (lu.first_step < 0) lu.first_step = e.step;
      lu.last_step = e.step;
      if (e.packet == TraceEvent::kNoPacket) break;  // defensive
      if (open_flight_of(e.packet) == kNoFlight) {
        // Wormhole traces emit a worm's kTransmit batch *before* its
        // kWormStart within the acquisition step (kTransmit sorts ahead of
        // kWormStart), so an implicit open here is normal — the kWormStart
        // claims it moments later.  An implicit open that no kWormStart
        // ever claims is a malformed packet stream; inconsistencies()
        // folds the unclaimed count in.
        ++unclaimed_implicit_;
        open_flight(e.packet, /*release_step=*/-1);
        packets_[e.packet].link = e.link;
        packets_[e.packet].enqueue_step = e.step;
      }
      PacketSlot& p = packets_[e.packet];
      // After a completed hop, enqueue_step is that hop's transmit step + 1.
      const bool queued = p.enqueue_step >= 0 || p.hops > 0;
      std::int32_t enq = queued ? p.enqueue_step : e.step;
      if (queued && p.link != TraceEvent::kNoLink && p.link != e.link) {
        note_inconsistency(e, "transmit on a different link than queued");
      }
      // Worm acquisition transmits all share one step; no wait semantics.
      if (enq > e.step) enq = e.step;
      log_hop({e.link, enq, e.step, static_cast<std::uint32_t>(e.value),
               p.open});
      // The next hop's link is unknown until an event names it.
      p.link = TraceEvent::kNoLink;
      p.enqueue_step = e.step + 1;
      ++p.hops;
      break;
    }
    case TraceEventKind::kArrive: {
      ++delivered_;
      const std::uint32_t idx = open_flight_of(e.packet);
      if (idx == kNoFlight) {
        note_inconsistency(e, "arrival for a packet never released");
        break;
      }
      FlightRecord& rec = records_[idx];
      rec.fate = FlightRecord::Fate::kDelivered;
      rec.end_step = e.step;
      rec.latency = e.value;
      if (rec.release_step >= 0 &&
          static_cast<std::uint64_t>(e.step + 1 - rec.release_step) !=
              e.value) {
        note_inconsistency(e, "arrival latency disagrees with release step");
      }
      packets_[e.packet].open = kNoFlight;
      break;
    }
    case TraceEventKind::kDrop: {
      ++dropped_;
      const std::uint32_t idx = open_flight_of(e.packet);
      if (idx == kNoFlight) {
        // Dropped before release: the packet's route was cut by a standing
        // fault, so it never entered the network.  (Note these ids index
        // the submitted workload, which may collide with a later wave's
        // wave-local ids — generations keep the records distinct.)
        FlightRecord& rec = open_flight(e.packet, /*release_step=*/-1);
        rec.fate = FlightRecord::Fate::kDropped;
        rec.end_step = e.step;
        rec.drop_link = e.link;
        packets_[e.packet].open = kNoFlight;
        break;
      }
      FlightRecord& rec = records_[idx];
      rec.fate = FlightRecord::Fate::kDropped;
      rec.end_step = e.step;
      rec.drop_link = e.link;
      PacketSlot& slot = packets_[e.packet];
      rec.pending_enqueue_step = slot.enqueue_step;
      if (e.value != slot.hops) {
        note_inconsistency(e, "drop hop count disagrees with record");
      }
      slot.open = kNoFlight;
      break;
    }
    case TraceEventKind::kStall:
      stalled_ += e.value;
      break;
    case TraceEventKind::kQueueDepth: {
      LinkUse& lu = link_slot(e.link);
      lu.peak_queue =
          std::max(lu.peak_queue, static_cast<std::uint32_t>(e.value));
      break;
    }
    case TraceEventKind::kWormStart: {
      worm_trace_ = true;
      // The worm's kTransmit batch this step already opened its record.
      const std::uint32_t idx = open_flight_of(e.packet);
      if (idx == kNoFlight) {
        open_flight(e.packet, e.step);
      } else {
        if (records_[idx].release_step < 0 && unclaimed_implicit_ > 0) {
          --unclaimed_implicit_;
        }
        records_[idx].release_step = e.step;
      }
      ++releases_;
      break;
    }
    case TraceEventKind::kWormDone: {
      worm_trace_ = true;
      const std::uint32_t idx = open_flight_of(e.packet);
      if (idx == kNoFlight) {
        note_inconsistency(e, "worm_done for a worm never started");
        break;
      }
      FlightRecord& rec = records_[idx];
      rec.fate = FlightRecord::Fate::kDelivered;
      rec.end_step = e.step;
      rec.latency = e.value;  // completion span: done step - release step
      ++delivered_;
      packets_[e.packet].open = kNoFlight;
      break;
    }
    case TraceEventKind::kFault:
      fault_events_.push_back({e.step, e.link, false});
      break;
    case TraceEventKind::kRepair:
      fault_events_.push_back({e.step, e.link, true});
      break;
    case TraceEventKind::kRetransmit:
      retransmits_.push_back({e.step, e.packet, e.link, e.value});
      break;
  }
}

int FlightRecorder::makespan() const {
  if (!any_events_) return 0;
  return worm_trace_ ? last_step_ : last_step_ + 1;
}

std::uint64_t FlightRecorder::peak_congestion() const {
  std::uint64_t peak = 0;
  for (const LinkUse& lu : links_) peak = std::max(peak, lu.transmissions);
  return peak;
}

std::uint64_t FlightRecorder::peak_congestion_link() const {
  const std::uint64_t peak = peak_congestion();
  if (peak == 0) return TraceEvent::kNoLink;
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (links_[l].transmissions == peak) return l;
  }
  return TraceEvent::kNoLink;
}

bool trace_event_from_json(const JsonValue& v, TraceEvent* out, bool* is_meta,
                           std::string* error) {
  *is_meta = false;
  if (!v.is_object()) {
    if (error) *error = "trace record is not an object";
    return false;
  }
  const JsonValue* kind = v.find("kind");
  if (!kind || !kind->is_string()) {
    if (error) *error = "trace record has no \"kind\"";
    return false;
  }
  if (kind->as_string() == "meta") {
    *is_meta = true;
    return false;
  }
  TraceEvent e;
  if (!trace_event_kind_from_string(kind->as_string(), &e.kind)) {
    if (error) *error = "unknown trace event kind \"" + kind->as_string() +
                        "\"";
    return false;
  }
  const JsonValue* step = v.find("step");
  if (!step || !step->is_number()) {
    if (error) *error = "trace record has no numeric \"step\"";
    return false;
  }
  e.step = static_cast<std::int32_t>(step->as_number());
  if (const JsonValue* p = v.find("packet"); p && p->is_number()) {
    e.packet = static_cast<std::uint32_t>(p->as_number());
  }
  if (const JsonValue* l = v.find("link"); l && l->is_number()) {
    e.link = static_cast<std::uint64_t>(l->as_number());
  }
  if (const JsonValue* val = v.find("value"); val && val->is_number()) {
    e.value = static_cast<std::uint64_t>(val->as_number());
  }
  *out = e;
  return true;
}

TraceLoadResult load_trace_jsonl(const std::string& path,
                                 FlightRecorder& rec) {
  TraceLoadResult out;
  JsonlReader reader(path);
  if (!reader.ok()) {
    out.error = reader.error().message;
    return out;
  }
  JsonValue v;
  while (reader.next(&v)) {
    ++out.lines;
    TraceEvent e;
    bool is_meta = false;
    std::string err;
    if (trace_event_from_json(v, &e, &is_meta, &err)) {
      rec.add(e);
      ++out.events;
      continue;
    }
    if (is_meta) {
      if (const JsonValue* d = v.find("dims"); d && d->is_number()) {
        out.dims = static_cast<int>(d->as_number());
      }
      if (const JsonValue* p = v.find("packets"); p && p->is_number()) {
        out.meta_packets = static_cast<std::uint64_t>(p->as_number());
      }
      continue;
    }
    out.error = "line " + std::to_string(reader.line()) + ": " + err;
    return out;
  }
  if (reader.failed()) {
    out.error = reader.error().message;
    return out;
  }
  rec.flush();
  out.ok = true;
  return out;
}

}  // namespace hyperpath::obs
