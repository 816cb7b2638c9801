#include "sim/wormhole.hpp"

#include <algorithm>
#include <chrono>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/simcore.hpp"

namespace hyperpath {

using obs::TraceEvent;
using obs::TraceEventKind;

namespace {

/// The wormhole step loop over the SoA route plan: the acquisition scan
/// (whole route free?) walks a contiguous slice of 32-bit queue numbers instead
/// of recomputing Hypercube::edge_id per hop on every retry — the scan is
/// the hot path, since a blocked worm repeats it every step until it
/// starts.  Traced compiles the event emission in or out, exactly like the
/// store-and-forward kernel's specializations.
template <bool Traced>
WormResult run_worm(const Hypercube& host, const std::vector<Worm>& worms,
                    int max_steps, obs::TraceSink* sink) {
  HP_PROFILE_SPAN("sim/wormhole");
  WormResult result;
  result.completion.assign(worms.size(), 0);
  obs::StepTrace trace(sink);

  // The worm set as two compacted worklists: `pending` (not yet started,
  // ascending id — the deterministic acquisition priority) and `inflight`
  // (started, awaiting completion).  A step touches only live worms.
  std::vector<std::uint32_t> pending;
  std::vector<std::uint32_t> inflight;
  std::vector<int> completion_at(worms.size(), 0);

  // Compile the worm routes into the thread's scratch RoutePlan (worms are
  // not Packets, so the plan is assembled route by route), then number its
  // link queues like every store-and-forward run.
  simcore::RoutePlan& plan = simcore::step_scratch().plan;
  std::size_t active = 0;
  {
    HP_PROFILE_SPAN("setup");
    plan.clear();
    std::size_t total_nodes = 0;
    for (const Worm& w : worms) total_nodes += w.route.size();
    plan.reserve(worms.size(), total_nodes);
    for (const Worm& w : worms) {
      // Same per-worm check order as before: route, flits, release.  The
      // narrowing release cast is harmless when release < 0 — the check
      // below throws and the plan is discarded.
      plan.add_route(host, w.route, static_cast<std::uint32_t>(w.release),
                     "worm route invalid");
      HP_CHECK(w.flits >= 1, "worm needs at least one flit");
      HP_CHECK(w.release >= 0, "negative release time");
    }
    for (std::uint32_t i = 0; i < worms.size(); ++i) {
      if (plan.route_len[i] > 0) {
        pending.push_back(i);  // trivial routes need no link work
        ++active;
      }
    }
    plan.number_links(host);
  }
  // Held links, one bit per queue; events carry global link ids.
  simcore::LinkBitmap held(plan.num_queues());

  const std::uint32_t* const route_len = plan.route_len.data();
  const std::uint32_t* const route_off = plan.route_offsets.data();
  const std::uint32_t* const link_of_hop = plan.link_of_hop.data();
  const std::uint32_t* const release = plan.release.data();

  int step = 0;
  {
  HP_PROFILE_SPAN("steps");
  while (active > 0) {
    HP_CHECK(step < max_steps, "wormhole simulation exceeded max_steps");
    ++step;

    // Atomic circuit acquisition, id-priority: a worm starts only when its
    // *entire* route is free (this is what makes the model deadlock-free —
    // there is no hold-and-wait).  An unblocked L-link worm with M flits
    // started at step t completes at t + L + M − 2: the header crosses one
    // link per step and the body streams pipelined behind it.  The pending
    // list is compacted stably, so it stays in ascending id order.
    std::size_t keep = 0;
    for (std::size_t r = 0; r < pending.size(); ++r) {
      const std::uint32_t i = pending[r];
      if (static_cast<int>(release[i]) >= step) {
        pending[keep++] = i;
        continue;
      }
      const std::uint32_t len = route_len[i];
      const std::uint32_t* const links = link_of_hop + route_off[i];
      bool free = true;
      std::uint32_t blocked_on = 0;
      for (std::uint32_t h = 0; h < len; ++h) {
        if (held.test(links[h])) {
          free = false;
          blocked_on = links[h];  // first busy link
          break;
        }
      }
      if (!free) {
        if constexpr (Traced) {
          trace.record({step, TraceEventKind::kStall, i,
                        plan.link_of_queue(blocked_on), 0});
        }
        pending[keep++] = i;
        continue;
      }
      const int flits = worms[i].flits;
      for (std::uint32_t h = 0; h < len; ++h) {
        held.set(links[h]);
        if constexpr (Traced) {
          trace.record({step, TraceEventKind::kTransmit, i,
                        plan.link_of_queue(links[h]),
                        static_cast<std::uint64_t>(flits)});
        }
      }
      completion_at[i] = step + static_cast<int>(len) + flits - 2;
      inflight.push_back(i);
      if constexpr (Traced) {
        trace.record({step, TraceEventKind::kWormStart, i,
                      TraceEvent::kNoLink,
                      static_cast<std::uint64_t>(flits)});
      }
      result.total_flit_hops +=
          static_cast<std::uint64_t>(flits) * static_cast<std::uint64_t>(len);
    }
    pending.resize(keep);

    // Completions release all links at the end of their final step (a worm
    // started this step with a one-link, one-flit route completes
    // immediately — the inflight scan runs after the start pass so it is
    // seen).  Order within the pass is immaterial: trace events are
    // canonically sorted at end_step and all other writes are indexed.
    std::size_t live = 0;
    for (std::size_t r = 0; r < inflight.size(); ++r) {
      const std::uint32_t i = inflight[r];
      if (completion_at[i] != step) {
        inflight[live++] = i;
        continue;
      }
      result.completion[i] = step;
      if constexpr (Traced) {
        trace.record({step, TraceEventKind::kWormDone, i,
                      TraceEvent::kNoLink,
                      static_cast<std::uint64_t>(
                          step - static_cast<int>(release[i]))});
      }
      const std::uint32_t* const links = link_of_hop + route_off[i];
      for (std::uint32_t h = 0; h < route_len[i]; ++h) {
        held.clear(links[h]);
      }
      --active;
    }
    inflight.resize(live);
    trace.end_step();
  }
  }

  HP_PROFILE_SPAN("drain");
  trace.finish();
  result.makespan = step;
  return result;
}

}  // namespace

WormholeSim::WormholeSim(int dims) : host_(dims) {}

WormResult WormholeSim::run(const std::vector<Worm>& worms, int max_steps,
                            obs::TraceSink* sink) const {
  const auto t0 = std::chrono::steady_clock::now();
  WormResult result = sink != nullptr
                          ? run_worm<true>(host_, worms, max_steps, sink)
                          : run_worm<false>(host_, worms, max_steps, sink);
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace hyperpath
