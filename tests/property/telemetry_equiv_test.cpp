// Determinism contract of the telemetry bus (obs/telemetry.hpp): turning
// sampling on, at ANY period, must leave simulation results and trace
// streams bit-identical to a run with telemetry off.  The sampler rides
// the step counter and only reads simulator state, so this holds by
// construction — these tests are the license to keep the sampling hooks
// inside the hot loop.  Periods {1, 7, 64} cover every step, a period
// coprime to the workload's natural cadence, and the default.  The oracle
// phase runs the same step loop, so it inherits the contract.
#include <gtest/gtest.h>

#include <vector>

#include "base/rng.hpp"
#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/oracle_sim.hpp"
#include "sim/phase.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"

namespace hyperpath {
namespace {

using obs::RingBufferSink;
using obs::TelemetryBus;

const int kPeriods[] = {1, 7, 64};

void expect_same_result(const SimResult& a, const SimResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.total_transmissions, b.total_transmissions) << label;
  EXPECT_EQ(a.utilization, b.utilization) << label;
  EXPECT_EQ(a.max_queue, b.max_queue) << label;
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions) << label;
  EXPECT_EQ(a.latency, b.latency) << label;
  EXPECT_EQ(a.link_visits, b.link_visits) << label;
}

void expect_same_trace(const RingBufferSink& a, const RingBufferSink& b,
                       const std::string& label) {
  ASSERT_EQ(a.total(), b.total()) << label;
  ASSERT_EQ(a.dropped(), 0u) << label;
  EXPECT_EQ(a.events(), b.events()) << label;
}

/// Mixed workload: a Theorem 1 phase plus staggered random e-cube traffic,
/// so runs are long enough that every tested period actually fires.
std::vector<Packet> workload(int* dims_out) {
  const auto emb = theorem1_cycle_embedding(8);
  *dims_out = emb.host().dims();
  std::vector<Packet> packets = phase_packets(emb, 4);
  Rng rng(2026);
  const Hypercube q(*dims_out);
  for (int i = 0; i < 400; ++i) {
    Packet p;
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    p.route = ecube_route(q, s, d);
    p.release = static_cast<int>(rng.below(12));
    packets.push_back(std::move(p));
  }
  return packets;
}

TEST(TelemetryEquivalence, ResultsAndTracesBitIdenticalAcrossPeriods) {
  int dims = 0;
  const auto packets = workload(&dims);
  TelemetryBus& bus = TelemetryBus::global();
  bus.disable();

  // Baseline with telemetry off.
  RingBufferSink base_sink;
  const SimResult base = StoreForwardSim(dims).run(
      packets, Arbitration::kFifo, 1 << 22, &base_sink);

  for (int period : kPeriods) {
    const std::string label = "period=" + std::to_string(period);
    TelemetryBus::Config cfg;
    cfg.period_steps = period;
    bus.enable(cfg);
    RingBufferSink sink;
    const SimResult got =
        StoreForwardSim(dims).run(packets, Arbitration::kFifo, 1 << 22, &sink);
    const std::uint64_t samples = bus.total_samples();
    bus.disable();

    expect_same_result(got, base, label);
    expect_same_trace(sink, base_sink, label);
    // The run must actually have been observed: one sample per period
    // boundary reached, starting at step 0.
    EXPECT_EQ(samples,
              static_cast<std::uint64_t>((base.makespan + period - 1) /
                                         period))
        << label;
  }
}

TEST(TelemetryEquivalence, FaultReplayUnchangedByTelemetry) {
  int dims = 0;
  const auto packets = workload(&dims);
  FaultSchedule sched(dims);
  const Hypercube q(dims);
  sched.link_down(1, 0, q.neighbor(0, 0));
  sched.transient_link(2, 9, 5, q.neighbor(5, 1));
  sched.node_down(4, 17);
  sched.transient_node(3, 8, 33);

  TelemetryBus& bus = TelemetryBus::global();
  bus.disable();
  RingBufferSink base_sink;
  const FaultRunResult base = StoreForwardSim(dims).run_with_faults(
      packets, sched, Arbitration::kFifo, 1 << 22, &base_sink);

  for (int period : kPeriods) {
    const std::string label = "period=" + std::to_string(period);
    TelemetryBus::Config cfg;
    cfg.period_steps = period;
    bus.enable(cfg);
    RingBufferSink sink;
    const FaultRunResult got = StoreForwardSim(dims).run_with_faults(
        packets, sched, Arbitration::kFifo, 1 << 22, &sink);
    bus.disable();

    expect_same_result(got.sim, base.sim, label);
    EXPECT_EQ(got.fates, base.fates) << label;
    EXPECT_EQ(got.delivered, base.delivered) << label;
    EXPECT_EQ(got.lost, base.lost) << label;
    expect_same_trace(sink, base_sink, label);
  }
}

TEST(TelemetryEquivalence, OraclePhaseUnchangedByTelemetry) {
  // run_oracle_phase runs the engine's step loop, so the bus samples it
  // too; sampling at every step must not move a single result field.
  const auto oracle = algebraic_theorem1_oracle(8);
  std::vector<OracleEdge> edges;
  for (OracleId g = 0; g < oracle->guest_nodes(); ++g) {
    for (int s = 0; s < oracle->out_degree(g); ++s) {
      edges.push_back(oracle->out_edge(g, s));
    }
  }
  OraclePhaseSpec spec;
  spec.packets_per_edge = 16;

  TelemetryBus& bus = TelemetryBus::global();
  bus.disable();
  const OraclePhaseResult base = run_oracle_phase(*oracle, edges, spec);

  TelemetryBus::Config cfg;
  cfg.period_steps = 1;
  bus.enable(cfg);
  const OraclePhaseResult got = run_oracle_phase(*oracle, edges, spec);
  const std::uint64_t samples = bus.total_samples();
  bus.disable();

  EXPECT_EQ(samples, static_cast<std::uint64_t>(base.makespan));
  EXPECT_EQ(got.makespan, base.makespan);
  EXPECT_EQ(got.delivered, base.delivered);
  EXPECT_EQ(got.total_transmissions, base.total_transmissions);
  EXPECT_EQ(got.peak_congestion, base.peak_congestion);
  EXPECT_EQ(got.max_queue, base.max_queue);
  EXPECT_EQ(got.unique_links, base.unique_links);
  EXPECT_EQ(got.route_nodes, base.route_nodes);
  EXPECT_EQ(got.compiled_bytes, base.compiled_bytes);
  EXPECT_EQ(got.dim_transmissions, base.dim_transmissions);
}

}  // namespace
}  // namespace hyperpath
