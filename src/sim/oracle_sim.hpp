// Store-and-forward phase simulation fed directly from a PathOracle.
//
// The classic pipeline materializes an embedding, expands phase traffic
// into Packet vectors with HostPath routes, then compiles a RoutePlan —
// three copies of every route, and a materialized Q_24 embedding alone
// would not fit in memory.
//
// run_oracle_phase replaces all of that with streaming compilation:
//
//   1. compile_phase (phase.hpp, shared with measure_phase_cost) streams
//      each demanded guest edge's bundle paths hop by hop from the oracle
//      straight into a RoutePlan (no HostPath, no Packet, no bundle
//      vector).  A distinct bundle path is streamed once per edge: packets
//      past the bundle width replay a route already in the plan (its nodes
//      copied, its walk validated again), so p packets cost min(p, w)
//      oracle queries, not p.
//   2. simcore::run_plan, the store-and-forward tail every run shares,
//      numbers the link queues (RoutePlan::number_links).  A sampled phase
//      on a big host has far fewer hops than the host has links, so each
//      link's queue is its rank among the distinct global ids the traffic
//      touches (renumber_links' radix): memory is proportional to the
//      active packet set, and hosts past the n = 27 dense-id ceiling work
//      unchanged.  Traffic dense enough to use identity numbering gets
//      the same results.
//   3. The same tail runs the engine's step loop (FIFO, untraced,
//      fault-free) to completion; per-dimension transmissions come from
//      the plan's nodes, as for every run.  Telemetry sampling comes with
//      the engine.
//
// Packet-per-edge scheduling matches phase_packets: the bundle indices
// are stable-sorted by increasing path length and packet j of an edge
// rides order[j mod width].  On a host small enough for both pipelines,
// makespan / transmissions / congestion agree with the materialized path
// (tests/property/oracle_sample_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "embed/path_oracle.hpp"
#include "sim/simcore.hpp"

namespace hyperpath {

struct OraclePhaseSpec {
  int packets_per_edge = 1;  // p packets per demanded guest edge
  int max_steps = 1 << 22;   // HP_CHECK bound on the sweep
};

struct OraclePhaseResult {
  int makespan = 0;                     // steps until every packet arrived
  std::uint64_t delivered = 0;          // routes run to completion
  std::uint64_t total_transmissions = 0;
  std::uint64_t peak_congestion = 0;    // max packets routed over one link
  std::uint32_t max_queue = 0;          // deepest FIFO seen in the sweep
  std::uint64_t unique_links = 0;       // distinct host links touched
  std::uint64_t queues = 0;             // link queues the sweep allocated
  std::uint64_t route_nodes = 0;        // nodes stored in the compiled plan
  std::uint64_t compiled_bytes = 0;     // plan + arena + hop counters
  std::vector<std::uint64_t> dim_transmissions;  // per host dimension
};

/// Streams path `path_index` of `edge` from the oracle into `plan` as one
/// route (begin_route / push_node / end_route, "oracle route invalid"),
/// and appends each of its hops' global link id (tail·dims + dim) to
/// `glinks` — for callers that count static link loads themselves.
void add_oracle_route(const PathOracle& oracle, const OracleEdge& edge,
                      int path_index, std::uint32_t release_step,
                      simcore::RoutePlan& plan,
                      std::vector<std::uint64_t>& glinks);

/// Compiles `spec.packets_per_edge` packets per demanded guest edge from
/// the oracle's bundles with compile_phase and runs the FIFO phase to
/// completion on simcore::run_plan.
OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec = {});

}  // namespace hyperpath
