#include "sim/phase.hpp"

#include <gtest/gtest.h>

#include <string>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "core/cycle_multipath.hpp"
#include "embed/classical.hpp"
#include "obs/trace.hpp"

namespace hyperpath {
namespace {

TEST(Phase, GrayCycleOnePacketCostIsOne) {
  const auto emb = gray_code_cycle_embedding(4);
  const auto r = measure_phase_cost(emb, 1);
  EXPECT_EQ(r.makespan, 1);
}

// Section 2: with the classical Gray-code cycle, m packets per node need
// ~m steps (each node's single outgoing cycle link serializes them; the
// paper's lower bound is m/2 via the dimension-0 counting argument).
TEST(Phase, GrayCycleMPacketCostIsM) {
  const auto emb = gray_code_cycle_embedding(5);
  for (int m : {2, 4, 8}) {
    const auto r = measure_phase_cost(emb, m);
    EXPECT_EQ(r.makespan, m);
  }
}

TEST(Phase, PacketsRoundRobinOverBundle) {
  // Width-2 embedding of the 2-cycle; 4 packets per edge → 2 per path →
  // pipelined cost 2 + (2 − 1) = 3 over the length-2 paths.
  DigraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  MultiPathEmbedding emb(std::move(b).build(), 2);
  emb.set_node_map({0b00, 0b11});
  emb.set_paths(emb.guest().find_edge(0, 1),
                {{0b00, 0b01, 0b11}, {0b00, 0b10, 0b11}});
  emb.set_paths(emb.guest().find_edge(1, 0),
                {{0b11, 0b01, 0b00}, {0b11, 0b10, 0b00}});
  const auto packets = phase_packets(emb, 4);
  EXPECT_EQ(packets.size(), 8u);
  const auto r = measure_phase_cost(emb, 4);
  EXPECT_EQ(r.makespan, 3);
}

TEST(Phase, ShortestPathGetsExtraPackets) {
  // Bundle with one direct path and one length-3 path; p = 3 should put
  // packets 0 and 2 on the direct path.
  DigraphBuilder b(2);
  b.add_edge(0, 1);
  MultiPathEmbedding emb(std::move(b).build(), 3);
  emb.set_node_map({0b000, 0b001});
  emb.set_paths(0, {{0b000, 0b010, 0b011, 0b001}, {0b000, 0b001}});
  const auto packets = phase_packets(emb, 3);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].route.size(), 2u);  // direct first
  EXPECT_EQ(packets[1].route.size(), 4u);
  EXPECT_EQ(packets[2].route.size(), 2u);
}

TEST(Phase, KCopyCyclesPhaseCostOne) {
  // Lemma 1: the copies are jointly congestion-1, so a 1-packet phase on
  // every copy simultaneously still finishes in one step.
  const auto emb = multicopy_directed_cycles(4);
  const auto r = measure_phase_cost(emb, 1);
  EXPECT_EQ(r.makespan, 1);
}

TEST(Phase, KCopyPipelinedPackets) {
  const auto emb = multicopy_directed_cycles(4);
  const auto r = measure_phase_cost(emb, 5);
  EXPECT_EQ(r.makespan, 5);  // each copy's links serialize its own packets
}

TEST(Phase, EvenCubeFullUtilization) {
  // For even n every directed link carries a packet in every step of a
  // 1-packet multicopy phase.
  const auto emb = multicopy_directed_cycles(6);
  const auto r = measure_phase_cost(emb, 1);
  ASSERT_EQ(r.utilization.steps(), 1u);
  EXPECT_DOUBLE_EQ(r.utilization.profile()[0], 1.0);
}

// measure_phase_cost compiles its routes straight from the embedding; it
// must be exactly StoreForwardSim::run over phase_packets — every
// deterministic result field and, traced, the whole event stream.
template <typename Embedding>
void expect_direct_matches_materialized(const Embedding& emb, int p,
                                        const std::string& label) {
  const StoreForwardSim sim(emb.host().dims());
  for (const Arbitration policy :
       {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
    for (const bool traced : {false, true}) {
      const std::string at = label + " p=" + std::to_string(p) +
                             (policy == Arbitration::kFifo ? " fifo" : " ff") +
                             (traced ? " traced" : "");
      obs::RingBufferSink direct_sink, packet_sink;
      const SimResult direct =
          measure_phase_cost(emb, p, policy, traced ? &direct_sink : nullptr);
      const SimResult via_packets =
          sim.run(phase_packets(emb, p), policy, 1 << 22,
                  traced ? &packet_sink : nullptr);
      EXPECT_EQ(direct.makespan, via_packets.makespan) << at;
      EXPECT_EQ(direct.total_transmissions, via_packets.total_transmissions)
          << at;
      EXPECT_EQ(direct.utilization, via_packets.utilization) << at;
      EXPECT_EQ(direct.max_queue, via_packets.max_queue) << at;
      EXPECT_EQ(direct.dim_transmissions, via_packets.dim_transmissions)
          << at;
      EXPECT_EQ(direct.latency, via_packets.latency) << at;
      EXPECT_EQ(direct.link_visits, via_packets.link_visits) << at;
      EXPECT_GT(direct.elapsed_seconds, 0.0) << at;
      if (traced) {
        ASSERT_GT(direct_sink.total(), 0u) << at;
        ASSERT_EQ(direct_sink.dropped(), 0u) << at;
        EXPECT_EQ(direct_sink.total(), packet_sink.total()) << at;
        EXPECT_EQ(direct_sink.events(), packet_sink.events()) << at;
      }
    }
  }
}

TEST(Phase, DirectCompileMatchesPhasePacketsTheorem1) {
  // Width 4 on Q_8: p = 1 and 4 stay inside one round of the bundle,
  // 5 and 12 wrap it, so the sorted order decides which paths repeat.
  const auto emb = theorem1_cycle_embedding(8);
  for (const int p : {1, 4, 5, 12}) {
    expect_direct_matches_materialized(emb, p, "theorem1 Q_8");
  }
}

TEST(Phase, DirectCompileMatchesPhasePacketsKCopy) {
  expect_direct_matches_materialized(multicopy_directed_cycles(4), 3,
                                     "k-copy Q_4");
}

TEST(Phase, PhaseOrderIsAStableSortByHops) {
  std::vector<int> order;
  const std::vector<std::uint32_t> hops = {3, 1, 3, 1, 2};
  phase_order(hops, order);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 0, 2}));
  phase_order(std::vector<std::uint32_t>{}, order);
  EXPECT_TRUE(order.empty());
}

TEST(Phase, DirectCompileValidatesRoutes) {
  DigraphBuilder b(2);
  b.add_edge(0, 1);
  MultiPathEmbedding emb(std::move(b).build(), 2);
  emb.set_node_map({0b00, 0b11});
  emb.set_paths(0, {{0b00, 0b11}});  // not a hypercube edge
  EXPECT_THROW(
      {
        try {
          measure_phase_cost(emb, 1);
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("packet route invalid"),
                    std::string::npos);
          throw;
        }
      },
      Error);
}

}  // namespace
}  // namespace hyperpath
