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

namespace simcore {

// The step loop.  Routes arrive compiled (RoutePlan), per-run state lives
// in the caller's StepScratch, and the sweep itself is the templated
// kernel; the specialization matrix is documented in step_kernel.hpp.
template <bool Traced, bool Faulted, typename LinkDim>
SimResult run_plan(const RoutePlan& plan, std::uint64_t num_links, int dims,
                   LinkDim link_dim, StepScratch& scratch,
                   Arbitration policy, int max_steps, obs::TraceSink* sink,
                   [[maybe_unused]] const FaultSchedule* schedule,
                   [[maybe_unused]] bool announce_faults,
                   FaultRunResult* fault_out) {
  const std::uint32_t num_routes = plan.num_routes();
  obs::StepTrace trace(sink);

  {
    HP_PROFILE_SPAN("setup");
    scratch.arena.reset(num_links, num_routes);
    scratch.active.clear();
    scratch.pending.clear();
    scratch.hop.assign(num_routes, 0);
    scratch.moved_mask.assign((num_routes + 63) / 64, 0);
    if constexpr (Traced) {
      scratch.highwater.assign(num_links, 0);
      scratch.link_mask.assign((num_links + 63) / 64, 0);
    }
  }

  LinkFifoArena& arena = scratch.arena;
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
    fault_out->fates.assign(num_routes, PacketFate{});
  }

  const auto enqueue = [&](std::uint32_t id) {
    const std::uint64_t link = link_of_hop[route_off[id] + hop[id]];
    arena.push_back(link, id, active);
    return link;
  };

  {
    HP_PROFILE_SPAN("setup");
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
      sort_moved(active, scratch.link_mask);
      trace.reserve(TraceEventKind::kRelease, undelivered - pending.size());
      for (const std::uint32_t link : active) {
        arena.for_each(link, [&](std::uint32_t id) {
          trace.record({0, TraceEventKind::kRelease, id, link, 0});
        });
      }
    }
    // (release, id) ascending: a step's deferred releases enqueue in
    // ascending id order, like the step-0 ones.
    std::sort(pending.begin(), pending.end());
  }

  SimResult result;
  result.dim_transmissions.assign(dims, 0);
  result.latency = obs::FixedHistogram::exponential();
  const double total_links = static_cast<double>(num_links);
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
      sort_moved(active, scratch.link_mask);
      for (const TraceEventKind kind :
           {TraceEventKind::kTransmit, TraceEventKind::kStall,
            TraceEventKind::kQueueDepth}) {
        trace.reserve(kind, active.size());
      }
    }
    const auto emit = [&](const TraceEvent& e) { trace.record(e); };
    SweepStats sweep;
    if (policy == Arbitration::kFifo) {
      sweep = step_sweep<Traced, Faulted>(arena, active, moved, dim_tx,
                                          link_dim, step,
                                          scratch.highwater.data(),
                                          FifoArbiter{}, emit);
    } else {
      sweep = step_sweep<Traced, Faulted>(
          arena, active, moved, dim_tx, link_dim, step,
          scratch.highwater.data(), FarthestFirstArbiter{route_len, hop},
          emit);
    }
    result.link_visits += sweep.link_visits;
    result.total_transmissions += sweep.busy;
    if (sweep.max_queue > max_queue) max_queue = sweep.max_queue;

    // Arrivals: advance hops; re-enqueue or deliver.  (Done after all links
    // transmitted so a packet moves at most one hop per step.)  Same-step
    // arrivals at one link are enqueued in increasing packet id — the
    // canonical order that makes results reproducible.  A packet whose next
    // link just died still enqueues here; the truncation pass of the next
    // step drops it at that node.
    sort_moved(moved, scratch.moved_mask);
    advance_hops(moved, hop);
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

template SimResult run_plan<false, false, DenseLinkDim>(
    const RoutePlan&, std::uint64_t, int, DenseLinkDim, StepScratch&,
    Arbitration, int, obs::TraceSink*, const FaultSchedule*, bool,
    FaultRunResult*);
template SimResult run_plan<false, true, DenseLinkDim>(
    const RoutePlan&, std::uint64_t, int, DenseLinkDim, StepScratch&,
    Arbitration, int, obs::TraceSink*, const FaultSchedule*, bool,
    FaultRunResult*);
template SimResult run_plan<true, false, DenseLinkDim>(
    const RoutePlan&, std::uint64_t, int, DenseLinkDim, StepScratch&,
    Arbitration, int, obs::TraceSink*, const FaultSchedule*, bool,
    FaultRunResult*);
template SimResult run_plan<true, true, DenseLinkDim>(
    const RoutePlan&, std::uint64_t, int, DenseLinkDim, StepScratch&,
    Arbitration, int, obs::TraceSink*, const FaultSchedule*, bool,
    FaultRunResult*);
template SimResult run_plan<false, false, TableLinkDim>(
    const RoutePlan&, std::uint64_t, int, TableLinkDim, StepScratch&,
    Arbitration, int, obs::TraceSink*, const FaultSchedule*, bool,
    FaultRunResult*);

}  // namespace simcore

StoreForwardSim::StoreForwardSim(int dims) : host_(dims) {}

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
  HP_PROFILE_SPAN("sim/store_forward");
  simcore::StepScratch& scratch = simcore::step_scratch();
  {
    HP_PROFILE_SPAN("setup");
    scratch.plan.rebuild(host_, packets);  // validates; keeps capacity
  }
  const std::uint64_t num_links = host_.num_directed_edges();
  const int dims = host_.dims();
  const simcore::DenseLinkDim link_dim{static_cast<std::uint64_t>(dims)};
  const auto run = [&]<bool Traced, bool Faulted>() {
    return simcore::run_plan<Traced, Faulted>(
        scratch.plan, num_links, dims, link_dim, scratch, policy, max_steps,
        sink, schedule, announce_faults, fault_out);
  };
  SimResult result;
  if (sink != nullptr) {
    result = schedule != nullptr ? run.operator()<true, true>()
                                 : run.operator()<true, false>();
  } else {
    result = schedule != nullptr ? run.operator()<false, true>()
                                 : run.operator()<false, false>();
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace hyperpath
