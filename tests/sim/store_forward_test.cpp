#include "sim/store_forward.hpp"

#include <gtest/gtest.h>

#include "base/error.hpp"

namespace hyperpath {
namespace {

TEST(StoreForward, EmptyAndTrivial) {
  StoreForwardSim sim(3);
  EXPECT_EQ(sim.run({}).makespan, 0);
  // A packet already at its destination takes no steps.
  Packet p;
  p.route = {5};
  EXPECT_EQ(sim.run({p}).makespan, 0);
}

TEST(StoreForward, SinglePacketTakesPathLengthSteps) {
  StoreForwardSim sim(4);
  Packet p;
  p.route = {0b0000, 0b0001, 0b0011, 0b0111};
  const auto r = sim.run({p});
  EXPECT_EQ(r.makespan, 3);
  EXPECT_EQ(r.total_transmissions, 3u);
}

TEST(StoreForward, ContentionSerializesSharedLink) {
  StoreForwardSim sim(3);
  // Three packets over the same first link 000→001.
  std::vector<Packet> ps(3);
  for (auto& p : ps) p.route = {0b000, 0b001};
  const auto r = sim.run(ps);
  EXPECT_EQ(r.makespan, 3);
  EXPECT_EQ(r.max_queue, 3u);
}

TEST(StoreForward, DisjointPathsRunConcurrently) {
  StoreForwardSim sim(3);
  std::vector<Packet> ps(3);
  ps[0].route = {0b000, 0b001, 0b011};
  ps[1].route = {0b000, 0b010, 0b011};
  ps[2].route = {0b000, 0b100, 0b101};
  const auto r = sim.run(ps);
  EXPECT_EQ(r.makespan, 2);
}

TEST(StoreForward, ReleaseDelaysPacket) {
  StoreForwardSim sim(2);
  Packet p;
  p.route = {0b00, 0b01};
  p.release = 5;
  const auto r = sim.run({p});
  EXPECT_EQ(r.makespan, 6);  // waits steps 0–4, moves during step 5
}

TEST(StoreForward, PipeliningAlongAPath) {
  // m packets along a single L-hop path complete in L + m − 1 steps.
  StoreForwardSim sim(4);
  const HostPath route{0b0000, 0b0001, 0b0011, 0b0111, 0b1111};
  std::vector<Packet> ps(6);
  for (auto& p : ps) p.route = route;
  const auto r = sim.run(ps);
  EXPECT_EQ(r.makespan, 4 + 6 - 1);
}

TEST(StoreForward, FarthestFirstBeatsFifoOnMixedTraffic) {
  // One long packet and several short ones sharing the first link: FIFO can
  // strand the long packet behind shorts; farthest-first sends it ahead.
  StoreForwardSim sim(4);
  std::vector<Packet> ps;
  Packet longp;
  longp.route = {0b0000, 0b0001, 0b0011, 0b0111, 0b1111};
  for (int i = 0; i < 3; ++i) {
    Packet s;
    s.route = {0b0000, 0b0001};
    ps.push_back(s);
  }
  ps.push_back(longp);
  const auto fifo = sim.run(ps, Arbitration::kFifo);
  const auto ff = sim.run(ps, Arbitration::kFarthestFirst);
  EXPECT_EQ(fifo.makespan, 3 + 4);  // long waits behind 3 shorts, then 4 hops
  EXPECT_EQ(ff.makespan, 4);        // long leads; shorts trail one per step
}

TEST(StoreForward, UtilizationAccounting) {
  StoreForwardSim sim(2);  // 8 directed links
  Packet p;
  p.route = {0b00, 0b01};
  const auto r = sim.run({p});
  ASSERT_EQ(r.utilization.steps(), 1u);
  EXPECT_DOUBLE_EQ(r.utilization.profile()[0], 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.average_utilization(), 1.0 / 8.0);
}

TEST(StoreForward, RejectsInvalidRoute) {
  StoreForwardSim sim(2);
  Packet p;
  p.route = {0b00, 0b11};
  EXPECT_THROW(sim.run({p}), Error);
}

TEST(StoreForward, DeterministicAcrossRuns) {
  StoreForwardSim sim(4);
  std::vector<Packet> ps;
  for (Node v = 0; v < 16; ++v) {
    Packet p;
    p.route = {v, v ^ 1u, v ^ 3u};
    ps.push_back(p);
  }
  const auto a = sim.run(ps);
  const auto b = sim.run(ps);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.utilization, b.utilization);
}

TEST(StoreForward, StampsElapsedTimeAndThroughput) {
  // Throughput is first-class but never part of the determinism contract:
  // every run stamps it, and no equivalence check compares it.
  StoreForwardSim sim(4);
  std::vector<Packet> ps;
  for (Node v = 0; v < 16; ++v) {
    Packet p;
    p.route = {v, v ^ 1u, v ^ 3u};
    ps.push_back(p);
  }
  for (const Arbitration policy :
       {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
    const auto r = sim.run(ps, policy);
    EXPECT_GT(r.elapsed_seconds, 0.0);
    EXPECT_GT(r.packet_steps_per_sec(), 0.0);
  }
}

}  // namespace
}  // namespace hyperpath
