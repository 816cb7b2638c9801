#include "sim/store_forward.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "sim/faults.hpp"
#include "sim/simcore.hpp"
#include "sim/step_kernel.hpp"

namespace hyperpath {

using obs::TraceEvent;
using obs::TraceEventKind;

namespace {

/// The SoA step path: routes compiled once into a RoutePlan, state reused
/// from the thread's StepScratch, the sweep delegated to the templated
/// kernel.  Bit-identical to run_flat_impl in results and trace streams
/// (the property suites enforce it); the specialization matrix is
/// documented in step_kernel.hpp.
template <bool Traced, bool Faulted>
SimResult run_soa(const Hypercube& host, const std::vector<Packet>& packets,
                  Arbitration policy, int max_steps, obs::TraceSink* sink,
                  [[maybe_unused]] const FaultSchedule* schedule,
                  [[maybe_unused]] bool announce_faults,
                  FaultRunResult* fault_out) {
  HP_PROFILE_SPAN("sim/store_forward");
  simcore::StepScratch& scratch = simcore::step_scratch();
  simcore::RoutePlan& plan = scratch.plan;
  const std::uint64_t num_links = host.num_directed_edges();
  obs::StepTrace trace(sink);

  {
    HP_PROFILE_SPAN("setup");
    plan.rebuild(host, packets);  // validates; keeps capacity across runs
    scratch.arena.reset(num_links, packets.size());
    scratch.active.clear();
    scratch.pending.clear();
    scratch.hop.assign(packets.size(), 0);
    scratch.moved_mask.assign((packets.size() + 63) / 64, 0);
    if constexpr (Traced) {
      scratch.highwater.assign(num_links, 0);
      scratch.link_mask.assign((num_links + 63) / 64, 0);
    }
  }

  simcore::LinkFifoArena& arena = scratch.arena;
  std::vector<std::uint32_t>& active = scratch.active;
  auto& pending = scratch.pending;
  std::uint32_t* const hop = scratch.hop.data();
  const std::uint32_t* const route_len = plan.route_len.data();
  const std::uint32_t* const route_off = plan.route_offsets.data();
  const std::uint32_t* const link_of_hop = plan.link_of_hop.data();
  const std::uint32_t* const release = plan.release.data();

  std::size_t undelivered = 0;

  std::optional<FaultTimeline> timeline;
  if constexpr (Faulted) timeline.emplace(*schedule);
  if (fault_out != nullptr) {
    fault_out->fates.assign(packets.size(), PacketFate{});
  }

  const auto enqueue = [&](std::uint32_t id) {
    const std::uint64_t link = link_of_hop[route_off[id] + hop[id]];
    arena.push_back(link, id, active);
    return link;
  };

  {
    HP_PROFILE_SPAN("setup");
    const std::uint32_t num_routes = plan.num_routes();
    for (std::uint32_t id = 0; id < num_routes; ++id) {
      if (route_len[id] == 0) continue;  // already at destination
      ++undelivered;
      if (release[id] == 0) {
        enqueue(id);
      } else {
        pending.emplace_back(release[id], id);
      }
    }
    // Step-0 releases in canonical (link, packet) order: ascending links,
    // and each link's queue holds its packets in ascending id order.
    if constexpr (Traced) {
      simcore::sort_moved(active, scratch.link_mask);
      trace.reserve(TraceEventKind::kRelease, undelivered - pending.size());
      for (const std::uint32_t link : active) {
        arena.for_each(link, [&](std::uint32_t id) {
          trace.record({0, TraceEventKind::kRelease, id, link, 0});
        });
      }
    }
    // (release, id) ascending reproduces the legacy per-step bucket order:
    // buckets were filled in ascending id order per release step.
    std::sort(pending.begin(), pending.end());
  }

  SimResult result;
  result.dim_transmissions.assign(host.dims(), 0);
  result.latency = obs::FixedHistogram::exponential();
  const double total_links = static_cast<double>(num_links);
  const int dims = host.dims();
  std::uint64_t* const dim_tx = result.dim_transmissions.data();

  int step = 0;
  std::uint32_t max_queue = 0;
  std::size_t next_release = 0;
  std::vector<std::uint32_t>& moved = scratch.moved;
  obs::TelemetryBus& telemetry = obs::TelemetryBus::global();
  {
  HP_PROFILE_SPAN("steps");
  while (undelivered > 0) {
    HP_CHECK(step < max_steps, "simulation exceeded max_steps");

    // Scheduled faults and repairs fire first, before any movement.
    if constexpr (Faulted) {
      const FaultTimeline::StepDelta& delta = timeline->advance_to(step);
      if constexpr (Traced) {
        if (announce_faults) {
          for (std::uint64_t link : delta.died) {
            trace.record({step, TraceEventKind::kFault, TraceEvent::kNoPacket,
                          link, 0});
          }
          for (std::uint64_t link : delta.repaired) {
            trace.record({step, TraceEventKind::kRepair,
                          TraceEvent::kNoPacket, link, 0});
          }
        }
      }
    }

    while (next_release < pending.size() &&
           pending[next_release].first == static_cast<std::uint32_t>(step)) {
      const std::uint32_t id = pending[next_release].second;
      const std::uint64_t link = enqueue(id);
      if constexpr (Traced) {
        trace.record({step, TraceEventKind::kRelease, id, link, 0});
      }
      ++next_release;
    }

    // Truncation: every packet waiting on a currently-dead link is lost at
    // the break point.  Iterates the timeline's sorted dead-link map so the
    // emitted kDrop order is canonical.  clear_link leaves the emptied
    // link's worklist entry stale; this step's sweep compacts it away
    // before any further enqueue can run.
    if constexpr (Faulted) {
      if (!timeline->dead_links().empty()) {
        for (const auto& [link, kills] : timeline->dead_links()) {
          if (arena.empty(link)) continue;
          arena.for_each(link, [&](std::uint32_t id) {
            --undelivered;
            if (fault_out != nullptr) {
              fault_out->fates[id] = {PacketFate::Kind::kLost, step, link,
                                      static_cast<int>(hop[id])};
            }
            if constexpr (Traced) {
              trace.record({step, TraceEventKind::kDrop, id, link, hop[id]});
            }
          });
          arena.clear_link(link);
        }
      }
    }

    // One transmission per active link (step_kernel.hpp); the worklist is
    // compacted in place, carrying only links whose queue is still nonempty
    // into the next step.  A traced sweep first puts the worklist in
    // ascending link order (link ids are distinct, so the mask sort is
    // exact), which makes its transmit/stall/queue_depth events come out
    // canonical; results do not depend on the visiting order.
    moved.clear();
    if constexpr (Traced) {
      simcore::sort_moved(active, scratch.link_mask);
      for (const TraceEventKind kind :
           {TraceEventKind::kTransmit, TraceEventKind::kStall,
            TraceEventKind::kQueueDepth}) {
        trace.reserve(kind, active.size());
      }
    }
    const auto emit = [&](const TraceEvent& e) { trace.record(e); };
    simcore::SweepStats sweep;
    if (policy == Arbitration::kFifo) {
      sweep = simcore::step_sweep<Traced, Faulted>(
          arena, active, moved, dim_tx, dims, step, scratch.highwater.data(),
          simcore::FifoArbiter{}, emit);
    } else {
      sweep = simcore::step_sweep<Traced, Faulted>(
          arena, active, moved, dim_tx, dims, step, scratch.highwater.data(),
          simcore::FarthestFirstArbiter{route_len, hop}, emit);
    }
    result.link_visits += sweep.link_visits;
    result.total_transmissions += sweep.busy;
    if (sweep.max_queue > max_queue) max_queue = sweep.max_queue;

    // Arrivals: advance hops; re-enqueue or deliver.  (Done after all links
    // transmitted so a packet moves at most one hop per step.)  Same-step
    // arrivals at one link are enqueued in increasing packet id — the
    // canonical order that makes results reproducible and lets the parallel
    // simulator match bit for bit.  A packet whose next link just died
    // still enqueues here; the truncation pass of the next step drops it at
    // that node.
    simcore::sort_moved(moved, scratch.moved_mask);
    simcore::advance_hops(moved, hop);
    if constexpr (Traced) trace.reserve(TraceEventKind::kArrive, moved.size());
    for (const std::uint32_t id : moved) {
      if (hop[id] == route_len[id]) {
        --undelivered;
        const std::uint64_t lat = static_cast<std::uint64_t>(
            step + 1 - static_cast<int>(release[id]));
        result.latency.observe(static_cast<double>(lat));
        if constexpr (Faulted) {
          if (fault_out != nullptr) {
            fault_out->fates[id] = {PacketFate::Kind::kDelivered, step,
                                    TraceEvent::kNoLink,
                                    static_cast<int>(hop[id])};
          }
        }
        if constexpr (Traced) {
          trace.record({step, TraceEventKind::kArrive, id,
                        TraceEvent::kNoLink, lat});
        }
      } else {
        enqueue(id);
      }
    }

    result.utilization.add(static_cast<double>(sweep.busy) / total_links);

    // Telemetry rides the step counter, reads sim state, writes nothing
    // back: results and traces are bit-identical at any sampling period.
    // After the sweep's compaction and the arrival enqueues, `active`
    // holds exactly the links with nonempty queues.
    if (telemetry.should_sample(step)) {
      obs::SimTelemetry t;
      t.step = step;
      t.undelivered = undelivered;
      t.transmissions = result.total_transmissions;
      t.active_links = active.size();
      t.depth_hist = obs::telemetry_depth_histogram();
      for (const std::uint32_t link : active) {
        const std::uint64_t d = arena.depth(link);
        t.queued_packets += d;
        t.max_queue_depth = std::max(t.max_queue_depth, d);
        t.depth_hist.observe(static_cast<double>(d));
      }
      telemetry.sample(std::move(t));
    }

    trace.end_step();
    ++step;
  }
  }

  HP_PROFILE_SPAN("drain");
  trace.finish();
  result.makespan = step;
  // The only width transition of the depth accounting: uint32 inside the
  // core, widened exactly once at the SimResult boundary.
  result.max_queue = static_cast<std::size_t>(max_queue);
  if (fault_out != nullptr) {
    for (const PacketFate& f : fault_out->fates) {
      if (f.delivered()) {
        ++fault_out->delivered;
      } else {
        ++fault_out->lost;
      }
    }
  }
  return result;
}

}  // namespace

StoreForwardSim::StoreForwardSim(int dims, SimEngine engine)
    : host_(dims), engine_(engine) {}

SimResult StoreForwardSim::run(const std::vector<Packet>& packets,
                               Arbitration policy, int max_steps,
                               obs::TraceSink* sink) const {
  return run_impl(packets, policy, max_steps, sink, nullptr, false, nullptr);
}

FaultRunResult StoreForwardSim::run_with_faults(
    const std::vector<Packet>& packets, const FaultSchedule& schedule,
    Arbitration policy, int max_steps, obs::TraceSink* sink,
    bool announce_faults) const {
  HP_CHECK(schedule.dims() == host_.dims(),
           "fault schedule dims mismatch simulator dims");
  FaultRunResult out;
  out.sim = run_impl(packets, policy, max_steps, sink, &schedule,
                     announce_faults, &out);
  return out;
}

SimResult StoreForwardSim::run_impl(const std::vector<Packet>& packets,
                                    Arbitration policy, int max_steps,
                                    obs::TraceSink* sink,
                                    const FaultSchedule* schedule,
                                    bool announce_faults,
                                    FaultRunResult* fault_out) const {
  const auto t0 = std::chrono::steady_clock::now();
  SimResult result;
  if (engine_ == SimEngine::kFlatArena) {
    result = run_flat_impl(packets, policy, max_steps, sink, schedule,
                           announce_faults, fault_out);
  } else if (sink != nullptr) {
    result = schedule != nullptr
                 ? run_soa<true, true>(host_, packets, policy, max_steps,
                                       sink, schedule, announce_faults,
                                       fault_out)
                 : run_soa<true, false>(host_, packets, policy, max_steps,
                                        sink, schedule, announce_faults,
                                        fault_out);
  } else {
    result = schedule != nullptr
                 ? run_soa<false, true>(host_, packets, policy, max_steps,
                                        sink, schedule, announce_faults,
                                        fault_out)
                 : run_soa<false, false>(host_, packets, policy, max_steps,
                                         sink, schedule, announce_faults,
                                         fault_out);
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

SimResult StoreForwardSim::run_flat_impl(const std::vector<Packet>& packets,
                                         Arbitration policy, int max_steps,
                                         obs::TraceSink* sink,
                                         const FaultSchedule* schedule,
                                         bool announce_faults,
                                         FaultRunResult* fault_out) const {
  HP_PROFILE_SPAN("sim/store_forward");
  {
    // Validate routes up front.
    HP_PROFILE_SPAN("setup");
    for (const Packet& p : packets) {
      HP_CHECK(is_valid_path(host_, p.route), "packet route invalid");
      HP_CHECK(p.release >= 0, "negative release time");
    }
  }

  // Flat-arena per-link FIFOs, indexed by the dense directed-link id, plus
  // the active worklist of links that currently hold packets (simcore.hpp).
  const std::uint64_t num_links = host_.num_directed_edges();
  simcore::LinkFifoArena arena(num_links, packets.size());
  std::vector<std::uint64_t> active;

  obs::StepTrace trace(sink);
  // Per-link high-water marks, dense, allocated only when tracing (the
  // global max_queue needs no per-link state).
  std::vector<std::uint64_t> highwater;
  if (trace.enabled()) highwater.assign(num_links, 0);

  std::vector<std::uint32_t> hop(packets.size(), 0);  // next edge index
  std::size_t undelivered = 0;

  std::optional<FaultTimeline> timeline;
  if (schedule != nullptr) timeline.emplace(*schedule);
  if (fault_out != nullptr) {
    fault_out->fates.assign(packets.size(), PacketFate{});
  }

  // Packets released later than step 0 sit in a release list.
  std::vector<std::vector<std::uint32_t>> release_at;
  auto enqueue = [&](std::uint32_t id) {
    const Packet& p = packets[id];
    const std::uint64_t link = host_.edge_id(p.route[hop[id]],
                                             p.route[hop[id] + 1]);
    arena.push_back(link, id, active);
    return link;
  };

  {
    HP_PROFILE_SPAN("setup");
    for (std::uint32_t id = 0; id < packets.size(); ++id) {
      const Packet& p = packets[id];
      if (p.route.size() <= 1) continue;  // already at destination
      ++undelivered;
      if (p.release == 0) {
        const std::uint64_t link = enqueue(id);
        if (trace.enabled()) {
          trace.record({0, TraceEventKind::kRelease, id, link, 0});
        }
      } else {
        if (release_at.size() <= static_cast<std::size_t>(p.release)) {
          release_at.resize(p.release + 1);
        }
        release_at[p.release].push_back(id);
      }
    }
  }

  SimResult result;
  result.dim_transmissions.assign(host_.dims(), 0);
  result.latency = obs::FixedHistogram::exponential();
  const double total_links = static_cast<double>(num_links);
  const int dims = host_.dims();

  int step = 0;
  std::size_t max_queue = 0;
  std::vector<std::uint32_t> moved;  // per-step scratch, reused across steps
  obs::TelemetryBus& telemetry = obs::TelemetryBus::global();
  {
  HP_PROFILE_SPAN("steps");
  while (undelivered > 0) {
    HP_CHECK(step < max_steps, "simulation exceeded max_steps");

    // Scheduled faults and repairs fire first, before any movement.
    if (timeline) {
      const FaultTimeline::StepDelta& delta = timeline->advance_to(step);
      if (announce_faults && trace.enabled()) {
        for (std::uint64_t link : delta.died) {
          trace.record({step, TraceEventKind::kFault, TraceEvent::kNoPacket,
                        link, 0});
        }
        for (std::uint64_t link : delta.repaired) {
          trace.record({step, TraceEventKind::kRepair, TraceEvent::kNoPacket,
                        link, 0});
        }
      }
    }

    if (static_cast<std::size_t>(step) < release_at.size()) {
      for (std::uint32_t id : release_at[step]) {
        const std::uint64_t link = enqueue(id);
        if (trace.enabled()) {
          trace.record({step, TraceEventKind::kRelease, id, link, 0});
        }
      }
    }

    // Truncation: every packet waiting on a currently-dead link is lost at
    // the break point.  Iterates the timeline's sorted dead-link map so the
    // emitted kDrop order is canonical.  clear_link leaves the emptied
    // link's worklist entry stale; this step's sweep compacts it away
    // before any further enqueue can run.
    if (timeline && !timeline->dead_links().empty()) {
      for (const auto& [link, kills] : timeline->dead_links()) {
        if (arena.empty(link)) continue;
        arena.for_each(link, [&](std::uint32_t id) {
          --undelivered;
          if (fault_out != nullptr) {
            fault_out->fates[id] = {PacketFate::Kind::kLost, step, link,
                                    static_cast<int>(hop[id])};
          }
          if (trace.enabled()) {
            trace.record({step, TraceEventKind::kDrop, id, link, hop[id]});
          }
        });
        arena.clear_link(link);
      }
    }

    // One transmission per active link; the worklist is compacted in place,
    // carrying only links whose queue is still nonempty into the next step.
    std::uint64_t busy = 0;
    moved.clear();
    std::size_t keep = 0;
    for (std::size_t r = 0; r < active.size(); ++r) {
      const std::uint64_t link = active[r];
      ++result.link_visits;
      if (arena.empty(link)) continue;  // stale: emptied by the drop pass
      const std::size_t depth = arena.depth(link);
      max_queue = std::max(max_queue, depth);
      if (trace.enabled()) {
        std::uint64_t& high = highwater[link];
        if (depth > high) {
          high = depth;
          trace.record({step, TraceEventKind::kQueueDepth,
                        TraceEvent::kNoPacket, link, depth});
        }
      }
      std::uint32_t pick;
      if (policy == Arbitration::kFifo) {
        pick = arena.pop_front(link);
      } else {
        // Farthest remaining distance first; ties broken by queue order.
        pick = arena.pop_max(link, [&](std::uint32_t id) {
          return packets[id].route.size() - 1 - hop[id];
        });
      }
      ++busy;
      ++result.total_transmissions;
      ++result.dim_transmissions[link % dims];
      if (trace.enabled()) {
        trace.record({step, TraceEventKind::kTransmit, pick, link, depth});
        if (depth > 1) {
          trace.record({step, TraceEventKind::kStall, TraceEvent::kNoPacket,
                        link, depth - 1});
        }
      }
      moved.push_back(pick);
      if (!arena.empty(link)) active[keep++] = link;
    }
    active.resize(keep);

    // Arrivals: advance hops; re-enqueue or deliver.  (Done after all links
    // transmitted so a packet moves at most one hop per step.)  Same-step
    // arrivals at one link are enqueued in increasing packet id — the
    // canonical order that makes results reproducible and lets the parallel
    // simulator match bit for bit.  A packet whose next link just died
    // still enqueues here; the truncation pass of the next step drops it at
    // that node.
    std::sort(moved.begin(), moved.end());
    for (std::uint32_t id : moved) {
      ++hop[id];
      const Packet& p = packets[id];
      if (hop[id] + 1 == p.route.size()) {
        --undelivered;
        const std::uint64_t lat =
            static_cast<std::uint64_t>(step + 1 - p.release);
        result.latency.observe(static_cast<double>(lat));
        if (fault_out != nullptr) {
          fault_out->fates[id] = {PacketFate::Kind::kDelivered, step,
                                  TraceEvent::kNoLink,
                                  static_cast<int>(hop[id])};
        }
        if (trace.enabled()) {
          trace.record({step, TraceEventKind::kArrive, id,
                        TraceEvent::kNoLink, lat});
        }
      } else {
        enqueue(id);
      }
    }

    result.utilization.add(static_cast<double>(busy) / total_links);

    // Telemetry rides the step counter, reads sim state, writes nothing
    // back: results and traces are bit-identical at any sampling period.
    // After the sweep's compaction and the arrival enqueues, `active`
    // holds exactly the links with nonempty queues.
    if (telemetry.should_sample(step)) {
      obs::SimTelemetry t;
      t.step = step;
      t.undelivered = undelivered;
      t.transmissions = result.total_transmissions;
      t.active_links = active.size();
      t.depth_hist = obs::telemetry_depth_histogram();
      for (std::uint64_t link : active) {
        const std::uint64_t d = arena.depth(link);
        t.queued_packets += d;
        t.max_queue_depth = std::max(t.max_queue_depth, d);
        t.depth_hist.observe(static_cast<double>(d));
      }
      telemetry.sample(std::move(t));
    }

    trace.end_step();
    ++step;
  }
  }

  HP_PROFILE_SPAN("drain");
  trace.finish();
  result.makespan = step;
  result.max_queue = max_queue;
  if (fault_out != nullptr) {
    for (const PacketFate& f : fault_out->fates) {
      if (f.delivered()) {
        ++fault_out->delivered;
      } else {
        ++fault_out->lost;
      }
    }
  }
  return result;
}

}  // namespace hyperpath
