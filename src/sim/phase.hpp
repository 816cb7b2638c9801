// Measuring p-packet phase costs (Section 3).
//
// The p-packet cost of an embedding is the number of synchronous steps
// needed to complete one phase of the guest computation in which every
// guest edge carries p packets.  We measure it empirically: packets are
// generated per guest edge — assigned round-robin over the edge's path
// bundle (bundle sorted by path length, so direct paths absorb the extra
// packets exactly as in Theorem 1's schedule; phase_order is that rule,
// shared with the oracle phase of oracle_sim.hpp) — and run through the
// store-and-forward step loop.
//
// measure_phase_cost never materializes the packets: compile_phase streams
// the phase's routes straight from the embedding's bundles into the calling
// thread's scratch RoutePlan — each distinct bundle path once per edge,
// every further packet a validated replay of a route already in the plan —
// and simcore::run_plan runs it, under a "sim/phase" profiler span with a
// "compile" child next to the tail's renumber / setup / steps / drain.  Its
// result equals StoreForwardSim::run on phase_packets field for field and
// event for event; phase_packets stays for callers that want the packets
// themselves.  The oracle phase (oracle_sim.hpp) compiles with the same
// compile_phase.
//
// The measured makespan is an *achievable* cost (an upper bound attained by
// a concrete oblivious schedule); the theorems' claims are checked against
// it in tests and benches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "embed/embedding.hpp"
#include "sim/packet.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

/// The phase schedule of one guest edge: its bundle's path indices
/// stable-sorted by hop count (`hops[i]` is path i's), so that packet j of
/// the edge rides bundle path order[j mod w] and the shortest paths absorb
/// the extra packets.  Resizes `order` to hops.size().
void phase_order(std::span<const std::uint32_t> hops, std::vector<int>& order);

/// phase_order over bundle e's hop counts, for a bundle source as
/// compile_phase takes; returns the bundle's width.
template <typename Bundles>
int schedule_bundle(const Bundles& bundles, std::size_t e,
                    std::vector<std::uint32_t>& hops, std::vector<int>& order) {
  const int w = bundles.width(e);
  HP_CHECK(w > 0, "phase needs a nonempty bundle per guest edge");
  hops.resize(w);
  for (int i = 0; i < w; ++i) hops[i] = bundles.hops(e, i);
  phase_order(hops, order);
  return w;
}

/// Compiles one phase into `plan` (appending): p packets for each of
/// `num_edges` bundles, in edge order.  `bundles` answers width(e),
/// hops(e, i) and stream(e, i, plan), which pushes bundle path i's nodes
/// with plan.push_node.  Packet j of edge e rides path order[j mod w]
/// (schedule_bundle): the first min(p, w) packets stream their path, each
/// packet j >= w replays the edge's route j mod w from the plan.  Every
/// route passes end_route's walk validation with `invalid_msg`.
template <typename Bundles>
void compile_phase(simcore::RoutePlan& plan, const Hypercube& host,
                   std::size_t num_edges, int p, const Bundles& bundles,
                   const char* invalid_msg) {
  std::vector<std::uint32_t> hops;
  std::vector<int> order;
  std::size_t total_hops = 0;  // exact sizes first: no regrowth mid-compile
  for (std::size_t e = 0; e < num_edges; ++e) {
    const int w = schedule_bundle(bundles, e, hops, order);
    for (int j = 0; j < p; ++j) total_hops += hops[order[j % w]];
  }
  const std::size_t routes = num_edges * static_cast<std::size_t>(p);
  plan.reserve(routes, total_hops + routes);
  for (std::size_t e = 0; e < num_edges; ++e) {
    const int w = schedule_bundle(bundles, e, hops, order);
    const std::uint32_t first = plan.num_routes();
    for (int j = 0; j < p; ++j) {
      if (j < w) {
        plan.begin_route(0);
        bundles.stream(e, order[j], plan);
        plan.end_route(host, invalid_msg);
      } else {
        plan.replay_route(host, first + j % w, invalid_msg);
      }
    }
  }
}

/// The packets of one phase: p per guest edge, packet j of an edge routed on
/// bundle path (j mod w) with the bundle sorted by increasing length.
std::vector<Packet> phase_packets(const MultiPathEmbedding& emb, int p);

/// The packets of one phase across all copies of a k-copy embedding: p per
/// guest edge *per copy*, each on its copy's single path.
std::vector<Packet> phase_packets(const KCopyEmbedding& emb, int p);

/// Runs one phase and returns the measured result (makespan = p-packet
/// cost of this schedule).  An optional trace sink receives the simulator's
/// step-level events.
SimResult measure_phase_cost(const MultiPathEmbedding& emb, int p,
                             Arbitration policy = Arbitration::kFifo,
                             obs::TraceSink* sink = nullptr);
SimResult measure_phase_cost(const KCopyEmbedding& emb, int p,
                             Arbitration policy = Arbitration::kFifo,
                             obs::TraceSink* sink = nullptr);

}  // namespace hyperpath
