// The algebraic oracle at scale: Q_20–Q_30 hosts that can never be
// materialized, verified by the sampling contract (endpoints, host
// adjacency, declared lengths, pairwise edge-disjointness), plus the
// oracle-fed consumers — RoutePlan streaming compilation, the compact-link
// phase simulator against its analytic congestion floor, and oracle-backed
// recovery — cross-checked against the materialized pipeline where both
// exist.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "base/error.hpp"
#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "core/lower_bounds.hpp"
#include "sim/faults.hpp"
#include "sim/oracle_sim.hpp"
#include "sim/phase.hpp"
#include "sim/recovery.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {
namespace {

TEST(OracleSample, Q20Torus) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{1024, 1024}, true});
  ASSERT_EQ(oracle->host_dims(), 20);
  const OracleSampleReport rep = oracle_sample_check(*oracle, 512, 2024);
  EXPECT_EQ(rep.edges_checked, 512u);
  EXPECT_GT(rep.paths_checked, rep.edges_checked);
}

TEST(OracleSample, Q24Torus) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  ASSERT_EQ(oracle->host_dims(), 24);
  const OracleSampleReport rep = oracle_sample_check(*oracle, 512, 7);
  EXPECT_EQ(rep.edges_checked, 512u);
}

TEST(OracleSample, Q30Torus) {
  const auto oracle =
      algebraic_grid_oracle(GridSpec{{256, 256, 256, 64}, true});
  ASSERT_EQ(oracle->host_dims(), 30);
  const OracleSampleReport rep = oracle_sample_check(*oracle, 256, 30);
  EXPECT_EQ(rep.edges_checked, 256u);
}

/// Streaming compilation must produce byte-for-byte the plan that
/// RoutePlan::compile builds from materialized phase packets.
TEST(OracleSample, RoutePlanStreamingMatchesCompile) {
  const MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  const Hypercube& host = emb.host();
  const std::vector<Packet> packets = phase_packets(emb, 5);
  const simcore::RoutePlan compiled = simcore::RoutePlan::compile(host, packets);

  simcore::RoutePlan streamed;
  for (const Packet& p : packets) {
    streamed.begin_route(static_cast<std::uint32_t>(p.release));
    for (const Node v : p.route) streamed.push_node(v);
    streamed.end_route(host);
  }
  EXPECT_EQ(streamed.route_nodes, compiled.route_nodes);
  EXPECT_EQ(streamed.route_offsets, compiled.route_offsets);
  EXPECT_EQ(streamed.link_of_hop, compiled.link_of_hop);
  EXPECT_EQ(streamed.route_len, compiled.route_len);
  EXPECT_EQ(streamed.release, compiled.release);
}

/// end_route_unlinked validates the walk but defers link ids; offsets and
/// lengths must still line up with the linked flavor.
TEST(OracleSample, RoutePlanUnlinkedOffsets) {
  const Hypercube host(4);
  simcore::RoutePlan plan;
  plan.begin_route(0);
  for (const Node v : {0u, 1u, 3u}) plan.push_node(v);
  plan.end_route_unlinked(4);
  plan.begin_route(2);
  for (const Node v : {7u, 5u}) plan.push_node(v);
  plan.end_route_unlinked(4);
  ASSERT_EQ(plan.num_routes(), 2u);
  EXPECT_EQ(plan.route_offsets, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(plan.route_len, (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(plan.release, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(plan.nodes(0)[0], 0u);
  EXPECT_EQ(plan.nodes(1)[1], 5u);
  EXPECT_TRUE(plan.link_of_hop.empty());
}

TEST(OracleSample, RoutePlanUnlinkedRejectsBadWalk) {
  simcore::RoutePlan plan;
  plan.begin_route(0);
  plan.push_node(0);
  plan.push_node(3);  // two bits flipped: not a hypercube hop
  EXPECT_THROW(plan.end_route_unlinked(4), Error);
}

/// The compact-link phase sweep must reproduce the dense-link SoA engine's
/// measurements exactly when both can run: renumbering links is a
/// bijection, so queue dynamics are unchanged.
TEST(OracleSample, PhaseSimMatchesMaterializedPipeline) {
  const MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  const MaterializedOracle mat(emb);
  const auto alg = algebraic_theorem1_oracle(8);

  std::vector<OracleEdge> edges;
  for (OracleId g = 0; g < alg->guest_nodes(); ++g) {
    for (int s = 0; s < alg->out_degree(g); ++s) {
      edges.push_back(alg->out_edge(g, s));
    }
  }

  // p = 5 runs one packet per bundle path.  p = 12 stacks packets on
  // links, so queueing order shows: there FIFO peaks at depth 4 where
  // farthest-first would reach 5.
  for (const int p : {5, 12}) {
    SCOPED_TRACE(p);
    OraclePhaseSpec spec;
    spec.packets_per_edge = p;
    const OraclePhaseResult from_alg = run_oracle_phase(*alg, edges, spec);
    const OraclePhaseResult from_mat = run_oracle_phase(mat, edges, spec);
    EXPECT_EQ(from_alg.makespan, from_mat.makespan);
    EXPECT_EQ(from_alg.total_transmissions, from_mat.total_transmissions);
    EXPECT_EQ(from_alg.peak_congestion, from_mat.peak_congestion);
    EXPECT_EQ(from_alg.max_queue, from_mat.max_queue);
    EXPECT_EQ(from_alg.unique_links, from_mat.unique_links);
    EXPECT_EQ(from_alg.dim_transmissions, from_mat.dim_transmissions);
    if (p == 12) {
      EXPECT_GT(from_alg.max_queue, 1u);
    }

    // Same dynamics as the classic dense-link pipeline.
    const StoreForwardSim sim(emb.host().dims());
    const SimResult classic = sim.run(phase_packets(emb, p));
    EXPECT_EQ(from_alg.makespan, classic.makespan);
    EXPECT_EQ(from_alg.total_transmissions, classic.total_transmissions);
    EXPECT_EQ(from_alg.max_queue,
              static_cast<std::uint32_t>(classic.max_queue));
    EXPECT_EQ(from_alg.dim_transmissions, classic.dim_transmissions);
    EXPECT_EQ(from_alg.delivered,
              static_cast<std::uint64_t>(edges.size()) * p);
  }
}

/// Packets past the bundle width replay routes already compiled.  On a
/// grid whose axes have different widths (3 along the 16-side axis, 5
/// along the 256-side one) the replay boundary falls at a different packet
/// per edge; p runs below, at and past both widths.  The streamed phase
/// must equal the materialized backend field for field, and the dense
/// StoreForwardSim run plus static link counts over phase_packets.
TEST(OracleSample, PhaseReplayMatchesAcrossBundleWidths) {
  const GridSpec spec{{16, 256}, true};
  const auto alg = algebraic_grid_oracle(spec);
  const MultiPathEmbedding emb = grid_multipath_embedding(spec);
  const MaterializedOracle mat(emb);

  std::vector<OracleEdge> edges;
  std::set<int> widths;
  for (OracleId g = 0; g < alg->guest_nodes(); ++g) {
    for (int s = 0; s < alg->out_degree(g); ++s) {
      edges.push_back(alg->out_edge(g, s));
      widths.insert(alg->width(edges.back()));
    }
  }
  ASSERT_EQ(widths, (std::set<int>{3, 5}));

  for (const int p : {1, 2, 3, 5, 7, 16}) {
    SCOPED_TRACE(p);
    OraclePhaseSpec ps;
    ps.packets_per_edge = p;
    const OraclePhaseResult a = run_oracle_phase(*alg, edges, ps);
    const OraclePhaseResult m = run_oracle_phase(mat, edges, ps);
    EXPECT_EQ(a.makespan, m.makespan);
    EXPECT_EQ(a.delivered, m.delivered);
    EXPECT_EQ(a.total_transmissions, m.total_transmissions);
    EXPECT_EQ(a.peak_congestion, m.peak_congestion);
    EXPECT_EQ(a.max_queue, m.max_queue);
    EXPECT_EQ(a.unique_links, m.unique_links);
    EXPECT_EQ(a.route_nodes, m.route_nodes);
    EXPECT_EQ(a.compiled_bytes, m.compiled_bytes);
    EXPECT_EQ(a.dim_transmissions, m.dim_transmissions);

    const std::vector<Packet> packets = phase_packets(emb, p);
    const Hypercube& host = emb.host();
    std::map<std::uint64_t, std::uint64_t> load;
    std::uint64_t nodes = 0;
    for (const Packet& pk : packets) {
      nodes += pk.route.size();
      for (std::size_t h = 0; h + 1 < pk.route.size(); ++h) {
        ++load[host.edge_id(pk.route[h], pk.route[h + 1])];
      }
    }
    std::uint64_t peak = 0;
    for (const auto& [link, n] : load) peak = std::max(peak, n);
    const SimResult dense = StoreForwardSim(host.dims()).run(packets);
    EXPECT_EQ(a.makespan, dense.makespan);
    EXPECT_EQ(a.delivered, packets.size());
    EXPECT_EQ(a.total_transmissions, dense.total_transmissions);
    EXPECT_EQ(a.peak_congestion, peak);
    EXPECT_EQ(a.max_queue, static_cast<std::uint32_t>(dense.max_queue));
    EXPECT_EQ(a.unique_links, load.size());
    EXPECT_EQ(a.route_nodes, nodes);
    EXPECT_EQ(a.dim_transmissions, dense.dim_transmissions);
  }
}

/// compiled_bytes is exactly the arrays the sweep runs on, summed by hand
/// from the phase's packets: the plan (4-byte route nodes, route offsets,
/// hop link ids, route lengths, release steps), one dimension byte per
/// link, the arena's head/tail/depth per link, and next + hop counter per
/// route.  No id table of 8 bytes per link exists after the renumber.
TEST(OracleSample, CompiledBytesCountsTheSweepArrays) {
  const GridSpec spec{{16, 256}, true};
  const auto alg = algebraic_grid_oracle(spec);
  const MultiPathEmbedding emb = grid_multipath_embedding(spec);
  std::vector<OracleEdge> edges;
  for (OracleId g = 0; g < alg->guest_nodes(); ++g) {
    for (int s = 0; s < alg->out_degree(g); ++s) {
      edges.push_back(alg->out_edge(g, s));
    }
  }
  for (const int p : {1, 4, 7}) {
    SCOPED_TRACE(p);
    OraclePhaseSpec ps;
    ps.packets_per_edge = p;
    const OraclePhaseResult r = run_oracle_phase(*alg, edges, ps);

    const std::vector<Packet> packets = phase_packets(emb, p);
    std::set<std::uint64_t> links;
    std::uint64_t nodes = 0;
    for (const Packet& pk : packets) {
      nodes += pk.route.size();
      for (std::size_t h = 0; h + 1 < pk.route.size(); ++h) {
        links.insert(emb.host().edge_id(pk.route[h], pk.route[h + 1]));
      }
    }
    const std::uint64_t routes = packets.size();
    const std::uint64_t hops = nodes - routes;
    const std::uint64_t plan = 4 * nodes + 4 * (routes + 1) + 4 * hops +
                               4 * routes + 4 * routes;
    const std::uint64_t per_link = 1 + 3 * 4;
    const std::uint64_t per_route = 2 * 4;
    EXPECT_EQ(r.unique_links, links.size());
    EXPECT_EQ(r.compiled_bytes,
              plan + per_link * links.size() + per_route * routes);
  }
}

/// Q_24 end to end from the algebraic backend: every packet delivered and
/// the measured congestion at or above the analytic floor.
TEST(OracleSample, Q24PhaseRespectsCongestionFloor) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  const std::vector<OracleEdge> edges =
      sample_guest_edges(*oracle, 4000, 99);
  OraclePhaseSpec spec;
  spec.packets_per_edge = 8;
  const OraclePhaseResult r = run_oracle_phase(*oracle, edges, spec);
  const OraclePhaseFloor floor = oracle_phase_floor(*oracle, edges, 8);
  EXPECT_EQ(r.delivered, edges.size() * 8u);
  EXPECT_GE(static_cast<std::int64_t>(r.peak_congestion), floor.floor);
  EXPECT_GE(r.makespan, 1);
  // Memory ∝ traffic, not host: the plan can never exceed a few nodes and
  // links per hop of demand, where the dense Q_24 link array alone would
  // hold 400M entries.
  EXPECT_LE(r.unique_links, static_cast<std::uint64_t>(edges.size()) * 8 * 4);
}

/// Oracle-backed recovery must be bit-identical to the embedding overload
/// when the demanded edges cover every guest edge in id order.
TEST(OracleSample, RecoveryMatchesEmbeddingBackend) {
  const MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  const MaterializedOracle mat(emb);

  std::vector<OracleEdge> edges;
  for (OracleId g = 0; g < mat.guest_nodes(); ++g) {
    for (int s = 0; s < mat.out_degree(g); ++s) {
      edges.push_back(mat.out_edge(g, s));
    }
  }
  ASSERT_EQ(edges.size(), mat.guest_edges());

  FaultSchedule schedule(emb.host().dims());
  schedule.link_down(1, 0, 1);
  schedule.link_down(2, 112, 114);
  schedule.transient_link(0, 6, 48, 50);

  RecoveryConfig config;
  config.timeout = 4;
  config.max_retries = 3;
  config.threshold = 0;
  config.update_registry = false;

  const RecoveryResult a = run_recovery(emb, schedule, config);
  const RecoveryResult b = run_recovery(mat, edges, schedule, config);
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.messages_complete, b.messages_complete);
  EXPECT_EQ(a.messages_recovered, b.messages_recovered);
  EXPECT_EQ(a.fragments_sent, b.fragments_sent);
  EXPECT_EQ(a.fragments_delivered, b.fragments_delivered);
  EXPECT_EQ(a.fragments_lost, b.fragments_lost);
  EXPECT_EQ(a.fragments_exhausted, b.fragments_exhausted);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.useful_transmissions, b.useful_transmissions);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t m = 0; m < a.messages.size(); ++m) {
    EXPECT_EQ(a.messages[m].complete, b.messages[m].complete) << m;
    EXPECT_EQ(a.messages[m].complete_step, b.messages[m].complete_step) << m;
    EXPECT_EQ(a.messages[m].first_loss_step, b.messages[m].first_loss_step)
        << m;
    EXPECT_EQ(a.messages[m].fragments_delivered,
              b.messages[m].fragments_delivered)
        << m;
    EXPECT_EQ(a.messages[m].retransmissions, b.messages[m].retransmissions)
        << m;
  }
}

/// Oracle recovery on a host too big to materialize: a handful of messages
/// ride Q_24 bundles through a fault on one of their own links.
TEST(OracleSample, Q24RecoverySurvivesSingleFault) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  const std::vector<OracleEdge> edges = sample_guest_edges(*oracle, 16, 5);

  // Kill the first link of edge 0's first bundle path; IDA threshold w-1
  // means every message still completes (§9 single-fault claim).
  const std::vector<HostPath> bundle = oracle->bundle(edges[0]);
  FaultSchedule schedule(oracle->host_dims());
  schedule.link_down(0, bundle[0][0], bundle[0][1]);

  RecoveryConfig config;
  config.timeout = 4;
  config.threshold = static_cast<int>(bundle.size()) - 1;
  config.update_registry = false;

  const RecoveryResult r = run_recovery(*oracle, edges, schedule, config);
  EXPECT_EQ(r.messages_total, edges.size());
  EXPECT_EQ(r.messages_complete, edges.size());
}

}  // namespace
}  // namespace hyperpath
