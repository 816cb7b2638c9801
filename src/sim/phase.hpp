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
// measure_phase_cost never materializes the packets: it compiles the
// phase's routes straight from the embedding's bundles into the calling
// thread's scratch RoutePlan (every route validated by
// RoutePlan::add_route) and runs simcore::run_plan on it, under a
// "sim/phase" profiler span with a "compile" child next to the loop's
// setup / steps / drain.  Its result equals StoreForwardSim::run on
// phase_packets field for field and event for event; phase_packets stays
// for callers that want the packets themselves.
//
// The measured makespan is an *achievable* cost (an upper bound attained by
// a concrete oblivious schedule); the theorems' claims are checked against
// it in tests and benches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "embed/embedding.hpp"
#include "sim/packet.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

/// The phase schedule of one guest edge: its bundle's path indices
/// stable-sorted by hop count (`hops[i]` is path i's), so that packet j of
/// the edge rides bundle path order[j mod w] and the shortest paths absorb
/// the extra packets.  Resizes `order` to hops.size().
void phase_order(std::span<const std::uint32_t> hops, std::vector<int>& order);

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
