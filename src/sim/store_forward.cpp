#include "sim/store_forward.hpp"

#include <algorithm>
#include <bit>
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

namespace {

// The step loop.  Routes arrive compiled with their queues numbered
// (RoutePlan), per-run state lives in the caller's StepScratch, and the
// sweep itself is the templated kernel; the specialization matrix is
// documented in step_kernel.hpp.  Queues stay inside: every event and fate
// carries the global link id.
template <bool Traced, bool Faulted>
SimResult step_loop(const RoutePlan& plan, int dims, StepScratch& scratch,
                    Arbitration policy, int max_steps, obs::TraceSink* sink,
                    [[maybe_unused]] const FaultSchedule* schedule,
                    [[maybe_unused]] bool announce_faults,
                    FaultRunResult* fault_out) {
  const std::uint32_t num_routes = plan.num_routes();
  const std::uint64_t num_queues = plan.num_queues();
  obs::StepTrace trace(sink);

  {
    HP_PROFILE_SPAN("setup");
    scratch.arena.reset(num_queues, num_routes);
    scratch.active.clear();
    scratch.pending.clear();
    scratch.hop.assign(num_routes, 0);
    scratch.moved_mask.assign((num_routes + 63) / 64, 0);
    if constexpr (Traced) {
      scratch.highwater.assign(num_queues, 0);
      scratch.link_mask.assign((num_queues + 63) / 64, 0);
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
    const std::uint32_t queue = link_of_hop[route_off[id] + hop[id]];
    arena.push_back(queue, id, active);
    return queue;
  };
  // Prefetches the queue record route `id` joins at hop `at` (none once it
  // is at its destination) — issued kPrefetchDistance routes before the
  // enqueue that needs it.
  const auto prefetch_enqueue = [&](std::uint32_t id, std::uint32_t at) {
    if (at < route_len[id]) {
      arena.prefetch_queue(link_of_hop[route_off[id] + at]);
    }
  };

  {
    HP_PROFILE_SPAN("setup");
    for (std::uint32_t id = 0; id < num_routes; ++id) {
      if (id + kPrefetchDistance < num_routes) {
        prefetch_enqueue(id + kPrefetchDistance, 0);
      }
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
      for (const std::uint32_t queue : active) {
        const std::uint64_t link = plan.link_of_queue(queue);
        arena.for_each(queue, [&](std::uint32_t id) {
          trace.record({0, TraceEventKind::kRelease, id, link, 0});
        });
      }
    }
    // (release, id) ascending: a step's deferred releases enqueue in
    // ascending id order, like the step-0 ones.
    std::sort(pending.begin(), pending.end());
  }

  SimResult result;
  result.latency = obs::FixedHistogram::exponential();
  const double total_links =
      static_cast<double>(Hypercube(dims).num_directed_edges());

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
      const std::uint32_t queue = enqueue(id);
      if constexpr (Traced) {
        trace.record({step, TraceEventKind::kRelease, id,
                      plan.link_of_queue(queue), 0});
      }
      ++next_release;
    }

    // Truncation: every packet waiting on a currently-dead link is lost at
    // the break point.  Iterates the timeline's sorted dead-link map so the
    // emitted kDrop order is canonical; a dead link no route uses has no
    // queue.  clear_link leaves the emptied queue's worklist entry stale;
    // this step's sweep compacts it away before any further enqueue can run.
    if constexpr (Faulted) {
      if (!timeline->dead_links().empty()) {
        for (const auto& [link, kills] : timeline->dead_links()) {
          const std::uint64_t queue = plan.queue_of_link(link);
          if (queue == kNoQueue || arena.empty(queue)) continue;
          arena.for_each(queue, [&](std::uint32_t id) {
            --undelivered;
            if (fault_out != nullptr) {
              fault_out->fates[id] = {PacketFate::Kind::kLost, step, link,
                                      static_cast<int>(hop[id])};
            }
            if constexpr (Traced) {
              trace.record({step, TraceEventKind::kDrop, id, link, hop[id]});
            }
          });
          arena.clear_link(queue);
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
    const auto emit = [&](TraceEvent e) {
      e.link = plan.link_of_queue(e.link);
      trace.record(e);
    };
    SweepStats sweep;
    if (policy == Arbitration::kFifo) {
      sweep = step_sweep<Traced, Faulted>(arena, active, moved, step,
                                          scratch.highwater.data(),
                                          FifoArbiter{}, emit);
    } else {
      sweep = step_sweep<Traced, Faulted>(
          arena, active, moved, step, scratch.highwater.data(),
          FarthestFirstArbiter{route_len, hop}, emit);
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
    // Each packet's hop advances as it is visited; the packet
    // kPrefetchDistance entries on has not advanced yet, hence its + 1.
    sort_moved(moved, scratch.moved_mask);
    if constexpr (Traced) trace.reserve(TraceEventKind::kArrive, moved.size());
    const std::size_t num_moved = moved.size();
    for (std::size_t i = 0; i < num_moved; ++i) {
      if (i + kPrefetchDistance < num_moved) {
        const std::uint32_t ahead = moved[i + kPrefetchDistance];
        prefetch_enqueue(ahead, hop[ahead] + 1);
      }
      const std::uint32_t id = moved[i];
      if (++hop[id] == route_len[id]) {
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
      for (const std::uint32_t queue : active) {
        const std::uint64_t d = arena.depth(queue);
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
  // Route r made exactly hop[r] transmissions, over its first hop[r] hops
  // (a lost route stops at its break point); a hop's dimension is the bit
  // its two nodes differ in.
  result.dim_transmissions.assign(dims, 0);
  for (std::uint32_t r = 0; r < num_routes; ++r) {
    const Node* v = plan.route_nodes.data() + route_off[r] + r;
    for (std::uint32_t h = 0; h < hop[r]; ++h) {
      ++result.dim_transmissions[std::countr_zero(v[h] ^ v[h + 1])];
    }
  }
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

SimResult run_plan(StepScratch& scratch, int dims, Arbitration policy,
                   int max_steps, obs::TraceSink* sink,
                   const FaultSchedule* schedule, bool announce_faults,
                   FaultRunResult* fault_out) {
  {
    HP_PROFILE_SPAN("renumber");
    scratch.plan.number_links(Hypercube(dims));
  }
  const auto run = [&]<bool Traced, bool Faulted>() {
    return step_loop<Traced, Faulted>(scratch.plan, dims, scratch, policy,
                                      max_steps, sink, schedule,
                                      announce_faults, fault_out);
  };
  if (sink != nullptr) {
    return schedule != nullptr ? run.operator()<true, true>()
                               : run.operator()<true, false>();
  }
  return schedule != nullptr ? run.operator()<false, true>()
                             : run.operator()<false, false>();
}

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
  SimResult result =
      simcore::run_plan(scratch, host_.dims(), policy, max_steps, sink,
                        schedule, announce_faults, fault_out);
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace hyperpath
