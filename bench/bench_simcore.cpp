// Infrastructure benchmark: the production simulator cores (StoreForwardSim
// on the shared step kernel in simcore.hpp, and WormholeSim) against the
// retained map-based reference implementations (reference_sim.hpp).
//
// Not a paper experiment — this measures the simulator itself: steps/sec
// and packet-hops/sec throughput of the store-and-forward core (traced and
// untraced) and the wormhole core, on Theorem-1-phase workloads (the
// heaviest traffic the paper's tables run) and a bit-reversal wormhole
// permutation.  Every simulation metric in the report is a
// deterministic output (makespans, transmissions, active-set visits, trace
// event counts) and is held to exact equality by the bench_gate CI gate;
// wall-clock goes into profiler timings and typed measurements only.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench/table.hpp"
#include "core/bitserial.hpp"
#include "obs/telemetry.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "par/task_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/phase.hpp"
#include "sim/reference_sim.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "sim/wormhole.hpp"

namespace hyperpath {
namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double mhops_per_sec(std::uint64_t hops, double seconds) {
  return static_cast<double>(hops) / seconds / 1e6;
}

// Theorem-1 phase traffic on Q_n with p = n packets per guest edge.
// theorem1_cycle_embedding's direct range needs ⌊n/4⌋ to be a power of two,
// which excludes 12 and 14 — those use the Corollary-1 torus product
// (64×64 and 128×128; every axis embedded by Theorem 1) instead.
MultiPathEmbedding phase_embedding(int n) {
  if (cycle_multipath_supported(n)) return theorem1_cycle_embedding(n);
  const Node side = static_cast<Node>(1) << (n / 2);
  return grid_multipath_embedding(GridSpec{{side, side}, true});
}

void print_store_forward_table(bench::Report& report) {
  // The core's acceptance workload: Theorem-1 phases with
  // p = n packets per guest edge on Q_12..Q_16.  Q_12 and Q_14 are not in
  // theorem1_cycle_embedding's direct range (⌊n/4⌋ must be a power of two),
  // so they run the Corollary-1 torus product — every axis embedded by
  // Theorem 1 — at 64×64 and 128×128; Q_16 is the direct Theorem-1 cycle.
  // "speedup" is map-reference seconds / core seconds.  The core run's own
  // elapsed time and packet-steps/second (SimResult::packet_steps_per_sec)
  // land in the measurements as soa_serial_* / pps_soa_serial_* so
  // bench_runner --history records them in the ledger.  "phase ms" is
  // measure_phase_cost on the same embedding, which compiles the routes
  // from the bundles instead of from the packets (its sim/phase span
  // splits into compile / setup / steps / drain); it must agree with the
  // packet run.
  bench::Table t("S1: store-and-forward core — map reference vs "
                 "StoreForwardSim",
                 {"n", "packets", "makespan", "Mhops", "ref ms", "sim ms",
                  "phase ms", "speedup", "ref Mhops/s", "sim Mhops/s"});
  for (int n : {12, 14, 16}) {
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return phase_embedding(n);
    }();
    const auto packets = phase_packets(emb, n);
    const refsim::RefStoreForwardSim ref(n);
    const StoreForwardSim sim(n);

    SimResult rr, rf, rp;
    HP_PROFILE_SPAN("simulate");
    const double s_ref = seconds_of([&] { rr = ref.run(packets); });
    const double s_sim = seconds_of([&] { rf = sim.run(packets); });
    const double s_phase =
        seconds_of([&] { rp = measure_phase_cost(emb, n); });
    if (rr.makespan != rf.makespan ||
        rr.total_transmissions != rf.total_transmissions ||
        rp.makespan != rf.makespan ||
        rp.total_transmissions != rf.total_transmissions ||
        rp.link_visits != rf.link_visits || rp.max_queue != rf.max_queue) {
      std::fprintf(stderr, "FATAL: core variants disagree on n=%d\n", n);
      std::exit(1);
    }
    t.row(n, packets.size(), rf.makespan,
          static_cast<double>(rf.total_transmissions) / 1e6, s_ref * 1e3,
          s_sim * 1e3, s_phase * 1e3, s_ref / s_sim,
          mhops_per_sec(rr.total_transmissions, s_ref),
          mhops_per_sec(rf.total_transmissions, s_sim));

    const std::string sn = std::to_string(n);
    report.measure("ref_serial_n" + sn, s_ref, bench::Unit::kSeconds);
    report.measure("sim_serial_n" + sn, s_sim, bench::Unit::kSeconds);
    report.measure("soa_serial_n" + sn, rf.elapsed_seconds,
                   bench::Unit::kSeconds);
    report.measure("pps_soa_serial_n" + sn, rf.packet_steps_per_sec(),
                   bench::Unit::kPerSecond);
    report.measure("phase_serial_n" + sn, rp.elapsed_seconds,
                   bench::Unit::kSeconds);
    report.metric("makespan_n" + sn, rf.makespan);
    report.metric("hops_n" + sn, rf.total_transmissions);
    report.metric("link_visits_n" + sn, rf.link_visits);
    report.metric("max_queue_n" + sn, rf.max_queue);
  }
  t.print();
  report.table(t);
}

void print_tracing_table(bench::Report& report) {
  // Observation overhead of the core on the Q_12 phase workload:
  // trace sink (every event) and live telemetry (one ring-buffer sample
  // every period steps) against the plain run.  Both must leave the
  // simulation bit-identical; the sample counts are deterministic outputs
  // (gated by bench_gate), the overhead ratios are wall-clock and live in
  // the measurements only.  The telemetry acceptance bound is <= 5%
  // at the default period of 64.
  bench::Table t("S2: core observation overhead (tracing + telemetry)",
                 {"n", "packets", "plain ms", "traced ms", "tele64 ms",
                  "tele1 ms", "events", "samples64", "samples1"});
  const int n = 12;
  const auto emb = phase_embedding(n);
  const auto packets = phase_packets(emb, n);
  const StoreForwardSim sim(n);

  SimResult rp, rt, r64, r1;
  obs::RingBufferSink ring;
  HP_PROFILE_SPAN("simulate");
  const double s_plain = seconds_of([&] { rp = sim.run(packets); });
  const double s_traced = seconds_of(
      [&] { rt = sim.run(packets, Arbitration::kFifo, 1 << 22, &ring); });

  // Telemetry at the default period and at the worst case (every step),
  // ring-only so no I/O rides the measurement.
  obs::TelemetryBus& bus = obs::TelemetryBus::global();
  const auto telemetry_run = [&](int period, SimResult* out) {
    obs::TelemetryBus::Config cfg;
    cfg.period_steps = period;
    bus.enable(cfg);
    const double s = seconds_of([&] { *out = sim.run(packets); });
    bus.disable();
    return s;
  };
  const double s_tele64 = telemetry_run(64, &r64);
  const std::uint64_t samples64 = bus.total_samples();
  const double s_tele1 = telemetry_run(1, &r1);
  const std::uint64_t samples1 = bus.total_samples();

  const auto same = [&](const SimResult& r) {
    return r.makespan == rp.makespan &&
           r.total_transmissions == rp.total_transmissions &&
           r.max_queue == rp.max_queue && r.link_visits == rp.link_visits &&
           r.dim_transmissions == rp.dim_transmissions &&
           r.latency == rp.latency && r.utilization == rp.utilization;
  };
  if (!same(rt) || !same(r64) || !same(r1)) {
    std::fprintf(stderr, "FATAL: observation changed the simulation\n");
    std::exit(1);
  }
  t.row(n, packets.size(), s_plain * 1e3, s_traced * 1e3, s_tele64 * 1e3,
        s_tele1 * 1e3, ring.total(), samples64, samples1);
  t.print();
  report.table(t);
  report.measure("sim_plain_n12", s_plain, bench::Unit::kSeconds);
  report.measure("sim_traced_n12", s_traced, bench::Unit::kSeconds);
  report.measure("sim_telemetry64_n12", s_tele64, bench::Unit::kSeconds);
  report.measure("sim_telemetry1_n12", s_tele1, bench::Unit::kSeconds);
  report.measure("telemetry64_overhead_ratio", s_tele64 / s_plain,
                 bench::Unit::kRatio);
  report.measure("telemetry1_overhead_ratio", s_tele1 / s_plain,
                 bench::Unit::kRatio);
  report.metric("trace_events_n12", ring.total());
  report.metric("telemetry_samples_p64_n12", samples64);
  report.metric("telemetry_samples_p1_n12", samples1);
}

void print_wormhole_table(bench::Report& report) {
  // Wormhole core on the bit-reversal permutation (the classic hard
  // pattern for dimension-ordered routes): map/set reference vs held-link
  // bitmap + compacted worm worklists.
  bench::Table t("S3: wormhole core — set reference vs bitmap worklists",
                 {"n", "worms", "flits", "makespan", "ref ms", "sim ms",
                  "speedup"});
  for (int n : {10, 12}) {
    const auto pattern = bit_reversal_pattern(n);
    const auto worms = ecube_worms(n, pattern, 32);
    const refsim::RefWormholeSim ref(n);
    const WormholeSim sim(n);

    WormResult rr, rf;
    HP_PROFILE_SPAN("simulate");
    const double s_ref = seconds_of([&] { rr = ref.run(worms); });
    const double s_sim = seconds_of([&] { rf = sim.run(worms); });
    if (rr.makespan != rf.makespan ||
        rr.total_flit_hops != rf.total_flit_hops) {
      std::fprintf(stderr, "FATAL: wormhole variants disagree on n=%d\n", n);
      std::exit(1);
    }
    t.row(n, worms.size(), 32, rf.makespan, s_ref * 1e3, s_sim * 1e3,
          s_ref / s_sim);
    const std::string sn = std::to_string(n);
    report.measure("ref_wormhole_n" + sn, s_ref, bench::Unit::kSeconds);
    report.measure("sim_wormhole_n" + sn, s_sim, bench::Unit::kSeconds);
    report.metric("worm_makespan_n" + sn, rf.makespan);
    report.metric("worm_flit_hops_n" + sn, rf.total_flit_hops);
  }
  t.print();
  report.table(t);
}

void print_campaign_gate(bench::Report& report) {
  // End-to-end determinism gate: a 1000-trial Q_10 Monte-Carlo fault
  // campaign (threshold w-1, moderate transient-heavy intensity) on an
  // 8-thread pool.  The campaign digest folds every field of every trial,
  // so any behavioural change anywhere in recovery — fates, truncation
  // steps, retransmit scheduling — moves the gated s4_mc_* metrics (their
  // names date from the retired S4 engine-vs-engine table).
  const auto emb10 = [&] {
    HP_PROFILE_SPAN("construct");
    return theorem1_cycle_embedding(10);
  }();
  CampaignConfig cfg;
  cfg.seed = 2026;
  cfg.trials = 1000;
  cfg.schedule.window = 8;
  cfg.schedule.link_rate = 0.05;
  cfg.schedule.transient_fraction = 0.5;
  cfg.recovery.timeout = 4;
  cfg.recovery.max_retries = 5;
  cfg.recovery.threshold = emb10.width() - 1;
  cfg.live_metrics = false;

  par::TaskPool pool(8);
  par::PoolScope scope(pool);
  const MonteCarloDriver driver(emb10);
  HP_PROFILE_SPAN("simulate");
  CampaignStats mc;
  const double s_mc = seconds_of([&] { mc = driver.run(cfg); });
  std::printf("S4 Monte-Carlo gate: Q_10 x %u trials, digest %016llx "
              "(%.2fs)\n\n",
              cfg.trials, static_cast<unsigned long long>(mc.digest), s_mc);
  report.measure("mc_soa_q10", s_mc, bench::Unit::kSeconds);
  // uint64 digests do not survive a JSON double round-trip (> 2^53): carry
  // the gated value as two exact 32-bit halves.
  report.metric("s4_mc_digest_hi", static_cast<std::uint64_t>(mc.digest >> 32));
  report.metric("s4_mc_digest_lo",
                static_cast<std::uint64_t>(mc.digest & 0xffffffffull));
  report.metric("s4_mc_messages_complete", mc.messages_complete);
  report.metric("s4_mc_retransmissions", mc.retransmissions);
}

void BM_SimSerialPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = phase_embedding(n);
  const auto packets = phase_packets(emb, n);
  const StoreForwardSim sim(n);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const auto r = sim.run(packets);
    benchmark::DoNotOptimize(r.makespan);
    hops += r.total_transmissions;
  }
  state.counters["hops/s"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimSerialPhase)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_RefSerialPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = phase_embedding(n);
  const auto packets = phase_packets(emb, n);
  const refsim::RefStoreForwardSim sim(n);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const auto r = sim.run(packets);
    benchmark::DoNotOptimize(r.makespan);
    hops += r.total_transmissions;
  }
  state.counters["hops/s"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RefSerialPhase)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_SimWormhole(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto worms = ecube_worms(n, bit_reversal_pattern(n), 32);
  const WormholeSim sim(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(worms).makespan);
  }
}
BENCHMARK(BM_SimWormhole)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("simcore", &argc, argv);
  hyperpath::print_store_forward_table(report);
  hyperpath::print_tracing_table(report);
  hyperpath::print_wormhole_table(report);
  hyperpath::print_campaign_gate(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
