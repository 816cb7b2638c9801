// Store-and-forward phase simulation fed directly from a PathOracle.
//
// The classic pipeline materializes an embedding, expands phase traffic
// into Packet vectors with HostPath routes, then compiles a RoutePlan —
// three copies of every route, plus per-link arena state sized by the
// host's full 2^n·n directed links.  At Q_24 that is ~400M link slots
// before the first packet moves; at Q_28 the dense link id itself no
// longer fits 32 bits.
//
// run_oracle_phase replaces all of that with streaming compilation:
//
//   1. Each demanded guest edge's bundle paths are streamed hop by hop
//      from the oracle straight into a RoutePlan (no HostPath, no Packet,
//      no bundle vector), recording each hop's 64-bit *global* link id
//      u·n + dim on the side.  A distinct bundle path is streamed once
//      per edge: packets past the bundle width replay a route already in
//      the plan (its nodes and global ids copied, its walk validated
//      again), so p packets cost min(p, w) oracle queries, not p.
//   2. renumber_links rewrites each hop's global id to its rank among the
//      distinct ids — a plan-local 32-bit link id — with one stable LSD
//      radix sort of (global id, hop) keys and one scan over the result.
//      The arena is sized by the number of *distinct links the traffic
//      touches* (≤ total hops), not by the host: memory is proportional
//      to the active packet set, and hosts past the n = 27 dense-id
//      ceiling work unchanged.
//   3. The store-and-forward engine's own step loop (simcore::run_plan in
//      store_forward.hpp, FIFO, untraced, fault-free) runs the plan to
//      completion.  The one difference from a StoreForwardSim run is the
//      per-dimension accounting: a compact id carries no dimension, so the
//      kernel reads it from a per-link table (simcore::TableLinkDim).
//      Telemetry sampling comes with the engine.
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
  std::uint64_t route_nodes = 0;        // nodes stored in the compiled plan
  std::uint64_t compiled_bytes = 0;     // plan + renumber table + arena
  std::vector<std::uint64_t> dim_transmissions;  // per host dimension
};

/// Streams path `path_index` of `edge` from the oracle into `plan` as one
/// unlinked route (simcore::RoutePlan streaming API), appending each hop's
/// 64-bit global link id (tail·dims + dim) to `glinks`.  The caller
/// renumbers glinks into plan-local ids after deduplication.
void add_oracle_route(const PathOracle& oracle, const OracleEdge& edge,
                      int path_index, std::uint32_t release_step,
                      simcore::RoutePlan& plan,
                      std::vector<std::uint64_t>& glinks);

/// Plan-local link ids for a hop sequence of 64-bit global link ids
/// (tail·dims + dim).
struct CompactLinks {
  /// Per hop: the rank of its global id among the distinct ids — exactly
  /// lower_bound(sorted_unique(glinks), glinks[h]).
  std::vector<std::uint32_t> link_of_hop;
  /// Per compact id: its global id mod dims, the host dimension.
  std::vector<std::uint8_t> dim_of;
  /// Hops on the most used link (the longest run of one global id).
  std::uint64_t peak_congestion = 0;
};

/// Renumbers `glinks` (consumed: its buffer holds the sort keys) with one
/// stable LSD radix sort of (global id << hop_bits | hop) keys over the
/// global-id bits only, then one scan that assigns ranks.  Throws if a key
/// would need more than 64 bits or a rank more than 32.
CompactLinks renumber_links(std::vector<std::uint64_t> glinks, int dims);

/// Compiles `spec.packets_per_edge` packets per demanded guest edge from
/// the oracle's bundles (add_oracle_route per distinct bundle path, a
/// replayed copy for every further packet), renumbers links with
/// renumber_links, and runs the FIFO phase to completion on
/// simcore::run_plan.
OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec = {});

}  // namespace hyperpath
