// Infrastructure benchmark: Theorem-1 phase simulation, untraced and with
// a flight recorder attached.
//
// Not a paper experiment — this measures the simulator itself: tracing
// overhead of a traced run (flight recorder assembling per-packet records
// in-line) against the untraced baseline, and confirms makespans agree.
// Flight-record summaries (queue-wait percentiles, critical-path length)
// are exported as exact gated metrics.  The report keeps its historical
// name, parallel_sim: it once also timed a sharded thread-parallel
// simulator, removed after it measured 0.94–1.21× serial speed at Q_16 on
// 4 threads (EXPERIMENTS.md, E15).
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight.hpp"
#include "sim/store_forward.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_table(bench::Report& report) {
  bench::Table t("E15: phase simulator — untraced vs flight-recorded",
                 {"n", "packets", "makespan", "serial ms", "traced ms",
                  "trace events"});
  for (int n : {10, 16}) {
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem1_cycle_embedding(n);
    }();
    const auto packets = phase_packets(emb, n);
    StoreForwardSim serial(n);

    SimResult rs, rt;
    obs::FlightRecorder rec;
    HP_PROFILE_SPAN("simulate");
    const double s_serial = seconds_of([&] { rs = serial.run(packets); });
    const double s_traced = seconds_of([&] {
      rt = serial.run(packets, Arbitration::kFifo, 1 << 22, &rec);
    });
    if (rs.makespan != rt.makespan) {
      std::fprintf(stderr, "FATAL: simulator variants disagree on n=%d\n", n);
      std::exit(1);
    }
    const obs::TraceAnalysis a = obs::analyze_flights(rec);
    if (a.makespan != rt.makespan || a.delivered != rt.latency.count() ||
        a.inconsistencies != 0 || a.depth_mismatches != 0) {
      std::fprintf(stderr, "FATAL: flight records disagree on n=%d\n", n);
      std::exit(1);
    }
    t.row(n, packets.size(), rs.makespan, s_serial * 1e3, s_traced * 1e3,
          rec.events_seen());
    // Wall-clock goes into the measurements (compared only with an
    // explicit --timing-tol), never into metrics: the bench_gate CI gate
    // holds metrics to exact equality, which only deterministic
    // simulation outputs can satisfy.
    report.measure("serial_n" + std::to_string(n), s_serial,
                   bench::Unit::kSeconds);
    report.measure("traced_n" + std::to_string(n), s_traced,
                   bench::Unit::kSeconds);
    const std::string suffix = "_n" + std::to_string(n);
    report.metric("makespan" + suffix, rs.makespan);
    report.metric("trace_events" + suffix, rec.events_seen());
    report.metric("queue_wait_p50" + suffix, a.queue_wait.quantile(0.5));
    report.metric("queue_wait_p99" + suffix, a.queue_wait.quantile(0.99));
    report.metric("critical_path" + suffix, a.critical_path.length());
    report.metric("critical_path_handoffs" + suffix,
                  a.critical_path.handoffs);
    report.metric("peak_congestion" + suffix, a.peak_congestion);
  }
  t.print();
  report.table(t);
}

void BM_SerialPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, n);
  StoreForwardSim sim(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(packets).makespan);
  }
}
BENCHMARK(BM_SerialPhase)->Arg(10)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_TracedSerialPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, n);
  StoreForwardSim sim(n);
  obs::RingBufferSink ring;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.run(packets, Arbitration::kFifo, 1 << 22, &ring).makespan);
  }
}
BENCHMARK(BM_TracedSerialPhase)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("parallel_sim", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
