// Randomized equivalence: the flat-arena simulators (simcore.hpp) must be
// bit-identical — results AND trace streams — to the retained map-based
// reference implementations (reference_sim.hpp) under FIFO, farthest-first,
// fault schedules and staggered releases.  These tests are the license to
// keep optimizing the hot loops: anything they accept emits the same bytes
// the pre-flat-arena code did.
#include <gtest/gtest.h>

#include <set>

#include "base/rng.hpp"
#include "sim/faults.hpp"
#include "sim/reference_sim.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "sim/wormhole.hpp"

namespace hyperpath {
namespace {

using obs::RingBufferSink;
using obs::TraceEvent;
using refsim::RefStoreForwardSim;
using refsim::RefWormholeSim;

std::vector<Packet> random_packets(int dims, int count, Rng& rng,
                                   int max_release) {
  const Hypercube q(dims);
  std::vector<Packet> out;
  for (int i = 0; i < count; ++i) {
    Packet p;
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    p.route = ecube_route(q, s, d);
    p.release = max_release > 0 ? static_cast<int>(rng.below(max_release)) : 0;
    out.push_back(std::move(p));
  }
  return out;
}

/// A schedule mixing permanent/transient link and node faults, biased to
/// fire while the workload above is still in flight.
FaultSchedule random_schedule(int dims, Rng& rng) {
  const Hypercube q(dims);
  FaultSchedule sched(dims);
  const int events = 3 + static_cast<int>(rng.below(6));
  for (int i = 0; i < events; ++i) {
    const int step = static_cast<int>(rng.below(8));
    const Node u = static_cast<Node>(rng.below(q.num_nodes()));
    switch (rng.below(4)) {
      case 0:
        sched.link_down(step, u, q.neighbor(u, static_cast<Dim>(
                                                   rng.below(dims))));
        break;
      case 1:
        sched.transient_link(step, step + 1 + static_cast<int>(rng.below(5)),
                             u,
                             q.neighbor(u, static_cast<Dim>(rng.below(dims))));
        break;
      case 2:
        sched.node_down(step, u);
        break;
      default:
        sched.transient_node(step, step + 1 + static_cast<int>(rng.below(5)),
                             u);
        break;
    }
  }
  return sched;
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions);
  EXPECT_EQ(a.latency, b.latency);
}

void expect_same_fault_result(const FaultRunResult& a,
                              const FaultRunResult& b) {
  expect_same_result(a.sim, b.sim);
  EXPECT_EQ(a.fates, b.fates);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.lost, b.lost);
}

void expect_same_trace(const RingBufferSink& a, const RingBufferSink& b) {
  ASSERT_EQ(a.total(), b.total());
  ASSERT_EQ(a.dropped(), 0u) << "ring too small for exact comparison";
  EXPECT_EQ(a.events(), b.events());
}

class SimcoreEquiv : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimcoreEquiv, SerialMatchesReferenceBothPolicies) {
  Rng rng(GetParam());
  const int dims = 3 + static_cast<int>(rng.below(5));
  const auto packets = random_packets(dims, 150, rng, 6);
  for (auto policy : {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
    RingBufferSink flat_sink, ref_sink;
    const auto flat =
        StoreForwardSim(dims).run(packets, policy, 1 << 22, &flat_sink);
    const auto ref =
        RefStoreForwardSim(dims).run(packets, policy, 1 << 22, &ref_sink);
    expect_same_result(flat, ref);
    expect_same_trace(flat_sink, ref_sink);
  }
}

TEST_P(SimcoreEquiv, SerialMatchesReferenceUnderFaults) {
  Rng rng(GetParam() ^ 0xFA17);
  const int dims = 4 + static_cast<int>(rng.below(3));
  const auto packets = random_packets(dims, 120, rng, 4);
  const auto sched = random_schedule(dims, rng);
  for (auto policy : {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
    RingBufferSink flat_sink, ref_sink;
    const auto flat = StoreForwardSim(dims).run_with_faults(
        packets, sched, policy, 1 << 22, &flat_sink);
    const auto ref = RefStoreForwardSim(dims).run_with_faults(
        packets, sched, policy, 1 << 22, &ref_sink);
    expect_same_fault_result(flat, ref);
    expect_same_trace(flat_sink, ref_sink);
  }
}

TEST_P(SimcoreEquiv, WormholeMatchesReference) {
  Rng rng(GetParam() ^ 0x3030);
  const int dims = 4 + static_cast<int>(rng.below(3));
  const Hypercube q(dims);
  std::vector<Worm> worms;
  const int count = 60;
  for (int i = 0; i < count; ++i) {
    Worm w;
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    w.route = ecube_route(q, s, d);
    w.flits = 1 + static_cast<int>(rng.below(12));
    w.release = static_cast<int>(rng.below(5));
    worms.push_back(std::move(w));
  }
  RingBufferSink flat_sink, ref_sink;
  const auto flat = WormholeSim(dims).run(worms, 1 << 22, &flat_sink);
  const auto ref = RefWormholeSim(dims).run(worms, 1 << 22, &ref_sink);
  EXPECT_EQ(flat.makespan, ref.makespan);
  EXPECT_EQ(flat.completion, ref.completion);
  EXPECT_EQ(flat.total_flit_hops, ref.total_flit_hops);
  expect_same_trace(flat_sink, ref_sink);
}

std::uint64_t total_hops(const std::vector<Packet>& packets) {
  std::uint64_t hops = 0;
  for (const Packet& p : packets) hops += p.route.size() - 1;
  return hops;
}

/// Whether the last run on this thread numbered its queues by identity,
/// read back from the plan it ran: one queue per host link.  The rule says
/// identity exactly when the host has no more links than the plan has hops.
bool last_run_identity(int dims, std::uint64_t hops) {
  const simcore::RoutePlan& plan = simcore::step_scratch().plan;
  const std::uint64_t host_links = Hypercube(dims).num_directed_edges();
  const bool identity = plan.num_queues() == host_links;
  EXPECT_EQ(identity, host_links <= hops);
  EXPECT_EQ(identity, plan.queue_links.empty());
  return identity;
}

/// The queue numbering is chosen from the traffic, so the same generator
/// lands on identity numbering on small cubes and on ranks on larger ones.
/// Both sides must match the reference: results, traces and fault fates.
TEST(SimcoreNumbering, BothNumberingsMatchReference) {
  std::set<bool> sides;
  for (const int dims : {4, 5, 7, 8}) {
    SCOPED_TRACE(dims);
    Rng rng(0x5eed + dims);
    const auto packets = random_packets(dims, 120, rng, 4);
    const auto sched = random_schedule(dims, rng);
    const std::uint64_t hops = total_hops(packets);
    for (auto policy : {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
      RingBufferSink flat_sink, ref_sink;
      const auto flat = StoreForwardSim(dims).run(packets, policy, 1 << 22,
                                                  &flat_sink);
      sides.insert(last_run_identity(dims, hops));
      const auto ref = RefStoreForwardSim(dims).run(packets, policy, 1 << 22,
                                                    &ref_sink);
      expect_same_result(flat, ref);
      expect_same_trace(flat_sink, ref_sink);

      RingBufferSink ffault_sink, rfault_sink;
      const auto ffault = StoreForwardSim(dims).run_with_faults(
          packets, sched, policy, 1 << 22, &ffault_sink);
      last_run_identity(dims, hops);
      const auto rfault = RefStoreForwardSim(dims).run_with_faults(
          packets, sched, policy, 1 << 22, &rfault_sink);
      expect_same_fault_result(ffault, rfault);
      expect_same_trace(ffault_sink, rfault_sink);
    }

    std::vector<Worm> worms;
    std::uint64_t worm_hops = 0;
    for (const Packet& p : packets) {
      worms.push_back({p.route, 1 + static_cast<int>(rng.below(6)),
                       p.release});
      worm_hops += p.route.size() - 1;
    }
    RingBufferSink flat_sink, ref_sink;
    const auto flat = WormholeSim(dims).run(worms, 1 << 22, &flat_sink);
    last_run_identity(dims, worm_hops);
    const auto ref = RefWormholeSim(dims).run(worms, 1 << 22, &ref_sink);
    EXPECT_EQ(flat.makespan, ref.makespan);
    EXPECT_EQ(flat.completion, ref.completion);
    EXPECT_EQ(flat.total_flit_hops, ref.total_flit_hops);
    expect_same_trace(flat_sink, ref_sink);
  }
  EXPECT_EQ(sides, (std::set<bool>{false, true}));
}

/// Q_30 has 32,212,254,720 directed links, past any 32-bit link id: a few
/// e-cube packets run on rank numbering, a fault on a link they use drops
/// them, and a fault on a link no route uses still announces itself.  The
/// run must equal the reference, and both fault events carry global ids.
TEST(SimcoreNumbering, Q30HostMatchesReferenceUnderFaults) {
  constexpr int kDims = 30;
  const Hypercube q(kDims);
  Rng rng(30);
  const auto packets = random_packets(kDims, 6, rng, 3);
  ASSERT_GT(packets[0].route.size(), 2u);
  const Node used_u = packets[0].route[1];
  const Node used_v = packets[0].route[2];
  const Node spare_u = q.num_nodes() - 1;
  const Node spare_v = q.neighbor(spare_u, 29);
  FaultSchedule sched(kDims);
  sched.link_down(0, used_u, used_v);
  sched.link_down(1, spare_u, spare_v);

  RingBufferSink flat_sink, ref_sink;
  const auto flat = StoreForwardSim(kDims).run_with_faults(
      packets, sched, Arbitration::kFifo, 1 << 22, &flat_sink);
  EXPECT_FALSE(last_run_identity(kDims, total_hops(packets)));
  EXPECT_EQ(simcore::step_scratch().plan.queue_of_link(
                q.edge_id(spare_u, spare_v)),
            simcore::kNoQueue);
  const auto ref = RefStoreForwardSim(kDims).run_with_faults(
      packets, sched, Arbitration::kFifo, 1 << 22, &ref_sink);
  expect_same_fault_result(flat, ref);
  expect_same_trace(flat_sink, ref_sink);
  EXPECT_GE(flat.lost, 1u);
  EXPECT_EQ(flat.fates[0].link, q.edge_id(used_u, used_v));

  std::set<std::uint64_t> fault_links;
  for (const TraceEvent& e : flat_sink.events()) {
    if (e.kind == obs::TraceEventKind::kFault) fault_links.insert(e.link);
  }
  EXPECT_EQ(fault_links,
            (std::set<std::uint64_t>{
                q.edge_id(used_u, used_v), q.edge_id(used_v, used_u),
                q.edge_id(spare_u, spare_v), q.edge_id(spare_v, spare_u)}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimcoreEquiv,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u, 17u,
                                           18u, 19u, 20u));

}  // namespace
}  // namespace hyperpath
