// Synchronous store-and-forward link simulator.
//
// Each directed link transmits at most one packet per step; packets whose
// next link is busy wait in that link's queue.  Two arbitration policies:
//
//   * kFifo          — queue order (arrival time, ties by packet id);
//   * kFarthestFirst — the waiting packet with the most remaining hops goes
//                      first (a common latency-improving heuristic).
//
// The simulator is deterministic for a fixed packet list and policy.  An
// optional obs::TraceSink receives step-level events (releases, transmits,
// stalls, queue high-water marks, arrivals); with a null sink no event is
// ever constructed.
//
// run_with_faults replays a timed FaultSchedule during the run: at the start
// of each step the schedule's events for that step fire (kFault/kRepair
// trace events), and every packet waiting on a currently-dead link is
// truncated at the break point (kDrop, value = hops completed).  The
// per-packet outcome is reported in FaultRunResult::fates; the recovery
// engine (recovery.hpp) builds sender-side retransmission on top.
//
// This is the one store-and-forward step loop of the library (the map-based
// reference_sim.hpp is the test spec it is checked against).  A run is a
// thin front — compile the packets into the thread's scratch RoutePlan —
// and simcore::run_plan, the tail every caller shares: measure_phase_cost
// (phase.hpp) compiles its plan straight from an embedding's bundles, and
// the oracle phase (oracle_sim.hpp, untraced and fault-free) straight
// from a PathOracle; all three hand run_plan a plan of global-link walks,
// and run_plan numbers its link queues (RoutePlan::number_links) and runs
// the step loop.  Hosts up to Q_30 work: state is sized by the traffic
// whenever the host has more links than the plan has hops.
#pragma once

#include "obs/trace.hpp"
#include "sim/packet.hpp"

namespace hyperpath {

enum class Arbitration { kFifo, kFarthestFirst };

class FaultSchedule;

namespace simcore {
class RoutePlan;
struct StepScratch;
}  // namespace simcore

class StoreForwardSim {
 public:
  /// Simulates on Q_dims.
  explicit StoreForwardSim(int dims);

  /// Runs the packet set to completion and returns the measured result.
  /// Throws if any route is invalid or the simulation exceeds `max_steps`.
  /// With a sink attached, emits the canonical step-level trace.
  SimResult run(const std::vector<Packet>& packets,
                Arbitration policy = Arbitration::kFifo,
                int max_steps = 1 << 22,
                obs::TraceSink* sink = nullptr) const;

  /// Runs the packet set while replaying `schedule`.  Packets that reach a
  /// dead link are truncated there (they stop participating); the rest run
  /// to completion.  The simulation ends when every packet is delivered or
  /// lost — schedule events after that point do not execute.  With
  /// `announce_faults` false the kFault/kRepair trace events are suppressed
  /// (used by the recovery engine, which replays one schedule across
  /// several retransmission waves and only announces it once).
  FaultRunResult run_with_faults(const std::vector<Packet>& packets,
                                 const FaultSchedule& schedule,
                                 Arbitration policy = Arbitration::kFifo,
                                 int max_steps = 1 << 22,
                                 obs::TraceSink* sink = nullptr,
                                 bool announce_faults = true) const;

 private:
  SimResult run_impl(const std::vector<Packet>& packets, Arbitration policy,
                     int max_steps, obs::TraceSink* sink,
                     const FaultSchedule* schedule, bool announce_faults,
                     FaultRunResult* fault_out) const;

  Hypercube host_;
};

namespace simcore {

/// The store-and-forward tail every run shares: numbers scratch.plan's link
/// queues (RoutePlan::number_links), then runs the step loop to completion
/// (every route delivered or, with a schedule, lost) on Q_dims, in the
/// traced / faulted shape `sink` and `schedule` ask for.  All per-run state
/// lives in `scratch`.  SimResult::utilization divides by the host's
/// directed links; dim_transmissions has `dims` entries, counted after the
/// run from the plan's nodes.
SimResult run_plan(StepScratch& scratch, int dims, Arbitration policy,
                   int max_steps, obs::TraceSink* sink,
                   const FaultSchedule* schedule, bool announce_faults,
                   FaultRunResult* fault_out);

}  // namespace simcore

}  // namespace hyperpath
