// perfbench driver: the repository benchmark's workloads.
//
// Every call into hyperpath goes through a public entry point of the
// hamdecomp, core, embed, sim, par or obs modules; no simulator engine is
// ever selected, so the library may consolidate its engines without this
// file changing.  Layer times come from spans recorded here, around those
// calls; layer counts come from the library's result structs and
// obs::MetricsRegistry counters.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-reps K] [--setup-only] [--corrupt] [--spans FILE]
//   perfbench --selftest
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}.  --trace 0 reports the end-to-end metrics of NAME; --trace 1
// runs every workload's layer pass and reports the per-layer table, plus
// the cost of span recording on NAME.  setup_s is the median of the
// setups in this process; with --setup-reps K > 1 the workload is set up
// again after every 1/K of the run.  --setup-only prints {"setup_s": x}
// for workloads whose setup warms a library cache, where run.py takes the
// median over fresh processes instead.  --corrupt perturbs one expected
// value of NAME's checks, which must raise the error rate.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "core/lower_bounds.hpp"
#include "embed/path_oracle.hpp"
#include "hamdecomp/decomposition.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/run_metadata.hpp"
#include "par/task_pool.hpp"
#include "probe.hpp"
#include "sim/montecarlo.hpp"
#include "sim/oracle_sim.hpp"
#include "sim/phase.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"

namespace perfbench {
namespace {

using namespace hyperpath;

/// splitmix64 of (seed, stream): every input a workload samples derives
/// from the one benchmark seed through a stream of its own.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum Stream : std::uint64_t {
  kPhaseEdges = 1,
  kCampaignSeed,
  kRouteEdges,  // + oracle index
  kRouteOrder = 8,
  kSampleCheck,  // + oracle index
};

std::string fmt(const char* f, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// One timed operation of a workload.
struct Op {
  double seconds = 0;
  double work = 0;  // units of the workload's throughput
  // Latency quantiles inside the operation: per query on route_mix, per
  // serial trial on campaign_q10 (p50 only).
  double p50_us = std::nan("");
  double p99_us = std::nan("");
  std::uint64_t latency_samples = 0;
};

/// What every workload shares: the seed, the recorders and the pool.
struct Context {
  std::uint64_t seed = 1;
  bool corrupt = false;
  Spans* spans = nullptr;
  Ledger* ledger = nullptr;
  par::TaskPool* pool = nullptr;
};

class Workload {
 public:
  explicit Workload(const Context& ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// The name of the throughput this workload reports, and its unit of work.
  virtual const char* work_metric() const = 0;
  /// What op_p50_us measures when an operation reports its own latency
  /// (Op::p50_us); nullptr when op_p50_us is the operation's wall time.
  virtual const char* latency_metric() const { return nullptr; }
  /// Everything from the start of the workload until the first operation is
  /// ready (timed as setup_s).  A repeated call first releases what the
  /// previous one built, so it costs what the first one did.
  virtual void setup() = 0;
  /// Seeded input generation; not part of setup_s.
  virtual void inputs() {}
  /// One timed operation, with its output checked.
  virtual Op op() = 0;
  /// Checks that need the whole run (after the timed loop).
  virtual void finish() {}
  /// The traced layer pass: times and counts per layer into `t`.
  virtual void layers(MetricTable&) {}

 protected:
  Spans& spans() { return *ctx_.spans; }
  void check(bool ok, const std::string& what, std::uint64_t ops = 1) {
    ctx_.ledger->record(ops, ok, what);
  }

  /// verify_or_throw as one checked operation; returns its seconds.
  double verify(const MultiPathEmbedding& emb) {
    ScopedSpan s(spans(), "embed.verify");
    try {
      emb.verify_or_throw();
      check(true, "verify_or_throw");
    } catch (const std::exception& e) {
      check(false, std::string("verify_or_throw: ") + e.what());
    }
    return s.stop();
  }

  Context ctx_;
};

void add_peak(MetricTable& t, const std::string& name,
              const std::optional<double>& mb, const std::string& note) {
  if (mb) {
    t.add(name, *mb, "MB", note);
  } else {
    t.absent(name, "MB", "VmHWM reset unavailable");
  }
}

// --- oracle_phase_q24 --------------------------------------------------------

class OraclePhaseQ24 final : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kPackets = 32;
  static constexpr std::uint64_t kEdges = 50000;

  const char* work_metric() const override { return "packet_steps_per_s"; }

  /// The phase's traffic is the library's own seeded edge sample, so
  /// sampling and the congestion floor are part of getting it ready.
  void setup() override {
    oracle_.reset();
    edges_ = {};
    {
      ScopedSpan s(spans(), "core.oracle_build");
      oracle_ = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
    }
    {
      ScopedSpan s(spans(), "embed.sample_edges");
      edges_ = sample_guest_edges(*oracle_, kEdges,
                                  derive_seed(ctx_.seed, kPhaseEdges));
    }
    ScopedSpan s(spans(), "core.congestion_floor");
    floor_ = oracle_phase_floor(*oracle_, edges_, kPackets);
  }

  Op op() override {
    OraclePhaseSpec spec;
    spec.packets_per_edge = kPackets;
    ScopedSpan s(spans(), "sim.oracle_phase");
    last_ = run_oracle_phase(*oracle_, edges_, spec);
    const double seconds = s.stop();
    const std::uint64_t expect = kEdges * kPackets + (ctx_.corrupt ? 1 : 0);
    bool ok = last_.delivered == expect &&
              static_cast<std::int64_t>(last_.peak_congestion) >= floor_.floor;
    if (first_) {
      ok = ok && last_.makespan == first_->makespan &&
           last_.total_transmissions == first_->total_transmissions &&
           last_.peak_congestion == first_->peak_congestion &&
           last_.unique_links == first_->unique_links;
    } else {
      first_ = last_;
    }
    check(ok, "oracle phase: delivered == packets, congestion >= floor, "
              "repeatable");
    return {seconds, static_cast<double>(last_.total_transmissions)};
  }

  void layers(MetricTable& t) override {
    setup();
    // add_oracle_route replayed over the phase's schedule (bundle indices
    // stable-sorted by hop count, packet j on order[j mod w]) times the
    // oracle -> plan compile that run_oracle_phase performs internally.
    double compile_s = 0;
    {
      ScopedSpan s(spans(), "sim.oracle_compile");
      simcore::RoutePlan plan;
      std::vector<std::uint64_t> glinks;
      std::vector<int> order;
      for (const OracleEdge& e : edges_) {
        order.resize(oracle_->width(e));
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
          return oracle_->path_hops(e, a) < oracle_->path_hops(e, b);
        });
        for (int j = 0; j < kPackets; ++j) {
          add_oracle_route(*oracle_, e, order[j % order.size()], 0, plan,
                           glinks);
        }
      }
      compile_s = s.stop();
      check(plan.num_routes() == kEdges * kPackets,
            "oracle compile replay: one route per packet");
    }
    const StagePeak peak;
    const Op phase = op();
    t.add("sim.oracle_compile_s", compile_s, "s", "add_oracle_route replay");
    t.add("sim.oracle_phase_s", phase.seconds, "s", "run_oracle_phase");
    t.add("sim.renumber_sweep_s", phase.seconds - compile_s, "s",
          "derived: phase - compile");
    add_peak(t, "sim.oracle_phase_peak_mb", peak.rise_mb(),
             "VmHWM rise during run_oracle_phase");
    t.add("sim.unique_links", static_cast<double>(last_.unique_links),
          "count");
    t.add("sim.route_nodes", static_cast<double>(last_.route_nodes), "count");
    t.add("sim.compiled_bytes", static_cast<double>(last_.compiled_bytes),
          "bytes");
    t.add("sim.peak_congestion", static_cast<double>(last_.peak_congestion),
          "count");
    t.add("sim.congestion_floor", static_cast<double>(floor_.floor), "count",
          "oracle_phase_floor");
  }

 private:
  std::unique_ptr<PathOracle> oracle_;
  std::vector<OracleEdge> edges_;
  OraclePhaseFloor floor_;
  OraclePhaseResult last_;
  std::optional<OraclePhaseResult> first_;
};

// --- materialized_phase_q16 / recorded_phase_q16 -----------------------------

/// Theorem-1 Q_16, p = 16: construction, parallel verification and
/// the SoA phase sweep.  The recorded variant reruns the phase with an
/// obs::FlightRecorder attached.
class PhaseQ16 : public Workload {
 public:
  static constexpr int kDims = 16;
  static constexpr int kPackets = 16;

  using Workload::Workload;

  void setup() override {
    emb_.reset();
    {
      ScopedSpan s(spans(), "core.construct");
      emb_.emplace(theorem1_cycle_embedding(kDims));
    }
    verify(*emb_);
  }

 protected:

  std::uint64_t packets() const {
    return emb_->guest().num_edges() * kPackets + (ctx_.corrupt ? 1 : 0);
  }

  /// The deterministic fields of a phase result must repeat run to run.
  bool repeats(const SimResult& r) {
    if (!first_) {
      first_ = r;
      return true;
    }
    return r.makespan == first_->makespan &&
           r.total_transmissions == first_->total_transmissions &&
           r.max_queue == first_->max_queue &&
           r.link_visits == first_->link_visits;
  }

  std::optional<MultiPathEmbedding> emb_;
  std::optional<SimResult> first_;
};

class MaterializedPhaseQ16 final : public PhaseQ16 {
 public:
  using PhaseQ16::PhaseQ16;

  const char* work_metric() const override { return "packet_steps_per_s"; }

  Op op() override {
    ScopedSpan s(spans(), "sim.phase");
    const SimResult r = measure_phase_cost(*emb_, kPackets);
    const double seconds = s.stop();
    check(r.latency.count() == packets() && repeats(r),
          "materialized phase: every packet delivered, repeatable");
    return {seconds, static_cast<double>(r.total_transmissions)};
  }

  void layers(MetricTable& t) override {
    double construct_s = 0;
    std::optional<double> construct_mb;
    {
      const StagePeak peak;
      ScopedSpan s(spans(), "core.construct");
      emb_.emplace(theorem1_cycle_embedding(kDims));
      construct_s = s.stop();
      construct_mb = peak.rise_mb();
    }
    const double verify_s = verify(*emb_);
    t.add("core.construct_s", construct_s, "s",
          "theorem1_cycle_embedding(16)");
    add_peak(t, "core.construct_peak_mb", construct_mb,
             "VmHWM rise during construction");
    t.add("embed.verify_s", verify_s, "s", "verify_or_throw");

    std::vector<Packet> packets;
    {
      ScopedSpan s(spans(), "sim.phase_packets");
      packets = phase_packets(*emb_, kPackets);
      t.add("sim.phase_packets_s", s.stop(), "s");
    }
    // The run compiles into a plan that keeps its capacity from run to
    // run, so the compile it pays is a warm rebuild: time the second one.
    double compile_s = 0;
    {
      simcore::RoutePlan plan =
          simcore::RoutePlan::compile(emb_->host(), packets);
      ScopedSpan s(spans(), "sim.plan_compile");
      plan.rebuild(emb_->host(), packets);
      compile_s = s.stop();
      check(plan.num_routes() == packets.size(), "RoutePlan::rebuild");
    }
    // The first run's peak includes the scratch the run keeps; the second,
    // warm run is the one timed, as in the end-to-end repetitions.
    const StoreForwardSim sim(emb_->host().dims());
    std::optional<double> run_mb;
    {
      const StagePeak peak;
      check(repeats(sim.run(packets)), "StoreForwardSim::run repeats");
      run_mb = peak.rise_mb();
    }
    SimResult r;
    double run_s = 0;
    {
      ScopedSpan s(spans(), "sim.run");
      r = sim.run(packets);
      run_s = s.stop();
    }
    check(r.latency.count() == this->packets() && repeats(r),
          "StoreForwardSim::run: every packet delivered");
    t.add("sim.plan_compile_s", compile_s, "s",
          "RoutePlan rebuild into a warm plan");
    t.add("sim.run_s", run_s, "s", "StoreForwardSim::run, warm");
    t.add("sim.sweep_s", run_s - compile_s, "s",
          "derived: run - warm compile");
    add_peak(t, "sim.run_peak_mb", run_mb,
             "VmHWM rise during the first run");
    t.add("sim.transmissions", static_cast<double>(r.total_transmissions),
          "count");
    t.add("sim.link_visits", static_cast<double>(r.link_visits), "count");
    t.add("sim.makespan", r.makespan, "count", "steps");
    t.add("sim.max_queue", static_cast<double>(r.max_queue), "count");
    packets = {};

    // obs: the same phase with a FlightRecorder attached, against the
    // untraced phase run next to it.
    const Op plain = op();
    obs::FlightRecorder rec;
    double recorded_s = 0;
    std::optional<double> record_mb;
    {
      const StagePeak peak;
      ScopedSpan s(spans(), "obs.recorded_phase");
      const SimResult traced =
          measure_phase_cost(*emb_, kPackets, Arbitration::kFifo, &rec);
      recorded_s = s.stop();
      record_mb = peak.rise_mb();
      check(rec.makespan() == traced.makespan &&
                rec.delivered() == this->packets() &&
                rec.transmissions() == traced.total_transmissions &&
                rec.inconsistencies() == 0 && repeats(traced),
            "FlightRecorder reproduces the phase");
    }
    t.add("obs.trace_events", static_cast<double>(rec.events_seen()),
          "count");
    t.add("obs.record_overhead", recorded_s / plain.seconds, "ratio",
          "recorded / untraced phase seconds");
    add_peak(t, "obs.record_peak_mb", record_mb,
             "VmHWM rise during the recorded phase");
  }
};

class RecordedPhaseQ16 final : public PhaseQ16 {
 public:
  using PhaseQ16::PhaseQ16;

  const char* work_metric() const override {
    return "recorded_packet_steps_per_s";
  }

  Op op() override {
    obs::FlightRecorder rec;
    ScopedSpan s(spans(), "obs.recorded_phase");
    const SimResult r =
        measure_phase_cost(*emb_, kPackets, Arbitration::kFifo, &rec);
    const double seconds = s.stop();
    check(rec.makespan() == r.makespan && rec.delivered() == packets() &&
              rec.transmissions() == r.total_transmissions &&
              rec.inconsistencies() == 0 && repeats(r),
          "FlightRecorder reproduces makespan, delivered, transmissions");
    return {seconds, static_cast<double>(r.total_transmissions)};
  }

  void finish() override {
    // Attaching the recorder must not change the simulation.
    const SimResult plain = measure_phase_cost(*emb_, kPackets);
    check(repeats(plain), "recorded phase == untraced phase");
  }
};

// --- campaign_q10 ------------------------------------------------------------

class CampaignQ10 final : public Workload {
 public:
  using Workload::Workload;
  static constexpr std::uint32_t kTrials = 1000;
  static constexpr std::uint32_t kLatencyTrials = 100;

  const char* work_metric() const override { return "trials_per_s"; }

  void setup() override {
    emb_.reset();
    {
      ScopedSpan s(spans(), "core.construct");
      emb_.emplace(theorem1_cycle_embedding(10));
    }
    verify(*emb_);
    cfg_.seed = derive_seed(ctx_.seed, kCampaignSeed);
    cfg_.trials = kTrials;
    cfg_.schedule.window = 8;
    cfg_.schedule.link_rate = 0.05;
    cfg_.schedule.transient_fraction = 0.5;
    cfg_.recovery.timeout = 4;
    cfg_.recovery.max_retries = 5;
    cfg_.recovery.threshold = emb_->width() - 1;
  }

  /// One campaign on the pool (the throughput), then kLatencyTrials of its
  /// trials run one by one on this thread (the per-trial latency), cycling
  /// through the campaign's trial indices from one operation to the next.
  Op op() override {
    ScopedSpan s(spans(), "sim.campaign");
    last_ = MonteCarloDriver(*emb_).run(cfg_);
    const double seconds = s.stop();
    if (!digest_) digest_ = last_.digest;
    check(last_.trials == kTrials && last_.digest == *digest_,
          "campaign digest repeats across repetitions");
    Op out{seconds, static_cast<double>(last_.trials)};

    ScopedSpan t(spans(), "sim.run_trial");
    const MonteCarloDriver driver(*emb_);
    std::vector<double> trial_us;
    for (std::uint32_t k = 0; k < kLatencyTrials; ++k) {
      const auto t0 = Clock::now();
      driver.run_trial(cfg_, next_trial_);
      trial_us.push_back(seconds_since(t0) * 1e6);
      next_trial_ = (next_trial_ + 1) % kTrials;
    }
    out.p50_us = median(trial_us);
    out.latency_samples = kLatencyTrials;
    return out;
  }

  const char* latency_metric() const override {
    return "trial_p50_us: one run_trial on this thread";
  }

  void finish() override { serial_seconds(); }

  void layers(MetricTable& t) override {
    setup();
    op();  // the first campaign in a process pays one-time scratch growth
    auto& reg = obs::MetricsRegistry::global();
    const std::uint64_t steals0 = reg.counter_value("par.steals");
    const std::uint64_t tasks0 = reg.counter_value("par.tasks_executed");
    const auto busy = [&] {
      const auto st = ctx_.pool->stats();
      return std::accumulate(st.busy_seconds.begin(), st.busy_seconds.end(),
                             0.0);
    };
    const double busy0 = busy();
    const Op wide = op();
    const double busy_s = busy() - busy0;
    t.add("par.tasks_executed",
          static_cast<double>(reg.counter_value("par.tasks_executed") - tasks0),
          "count", "one campaign");
    t.add("par.steals",
          static_cast<double>(reg.counter_value("par.steals") - steals0),
          "count", "one campaign");
    t.add("par.busy_frac", busy_s / (wide.seconds * ctx_.pool->threads()),
          "ratio", fmt("busy / (wall x %.0f threads)", ctx_.pool->threads()));
    t.add("par.speedup", serial_seconds() / wide.seconds, "ratio",
          fmt("1 thread / %.0f threads", ctx_.pool->threads()));
    t.add("sim.retransmissions", static_cast<double>(last_.retransmissions),
          "count", "one campaign");
    t.add("sim.fragments_lost", static_cast<double>(last_.fragments_lost),
          "count", "one campaign");
    t.add("sim.delivery_rate", last_.delivery_rate(), "ratio");

    // Serial run_trial sample: per-trial latency and per-run counts the
    // campaign's reducer does not keep.
    std::vector<double> trial_ms;
    std::uint64_t waves = 0, useful = 0, total = 0;
    {
      ScopedSpan s(spans(), "sim.run_trial");
      const MonteCarloDriver driver(*emb_);
      for (std::uint32_t i = 0; i < kTrials; ++i) {
        const auto t0 = Clock::now();
        const RecoveryResult r = driver.run_trial(cfg_, i);
        trial_ms.push_back(seconds_since(t0) * 1e3);
        waves += r.waves;
        useful += r.useful_transmissions;
        total += r.total_transmissions;
      }
    }
    // 1000 samples leave ten beyond p99, the least a tail percentile needs.
    const std::string n = fmt("%.0f serial run_trial samples", kTrials);
    t.add("sim.trial_p50_ms", quantile(trial_ms, 0.5), "ms", n);
    t.add("sim.trial_p99_ms", quantile(trial_ms, 0.99), "ms", n);
    t.add("sim.waves_mean", static_cast<double>(waves) / kTrials, "count");
    t.add("sim.useful_ratio",
          total ? static_cast<double>(useful) / total : 1.0, "ratio",
          "useful / total transmissions");
  }

 private:
  /// The same campaign on a one-thread pool: its digest must match the
  /// nproc-thread one.  Returns its wall time.
  double serial_seconds() {
    par::TaskPool one(1);
    const par::PoolScope scope(one);
    ScopedSpan s(spans(), "sim.campaign_1thread");
    const CampaignStats serial = MonteCarloDriver(*emb_).run(cfg_);
    const double seconds = s.stop();
    const std::uint64_t expect =
        digest_.value_or(serial.digest) ^ (ctx_.corrupt ? 1 : 0);
    check(serial.digest == expect,
          "campaign digest identical at 1 and nproc threads");
    return seconds;
  }

  std::optional<MultiPathEmbedding> emb_;
  CampaignConfig cfg_;
  CampaignStats last_;
  std::optional<std::uint64_t> digest_;
  std::uint32_t next_trial_ = 0;
};

// --- route_mix ---------------------------------------------------------------

/// The q-quantile (nearest rank below) of nanosecond samples, in µs;
/// reorders `ns`.
double nth_us(std::vector<std::uint32_t>& ns, double q) {
  const auto k = static_cast<std::size_t>(q * (ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + k, ns.end());
  return ns[k] / 1e3;
}

/// Counts streamed nodes and folds them into a checksum.
class CountingSink final : public NodeSink {
 public:
  void push(Node v) override {
    ++nodes_;
    sum_ = (sum_ ^ v) * 0x100000001b3ull;
  }
  std::uint64_t nodes() const { return nodes_; }
  std::uint64_t checksum() const { return sum_ ^ nodes_; }

 private:
  std::uint64_t nodes_ = 0;
  std::uint64_t sum_ = 0xcbf29ce484222325ull;
};

class RouteMix final : public Workload {
 public:
  using Workload::Workload;
  static constexpr std::size_t kQueries = std::size_t{1} << 20;
  static constexpr std::uint64_t kCheckEdges = 2000;
  static constexpr int kOracles = 3;
  static constexpr const char* kFamily[kOracles] = {"grid", "theorem1",
                                                    "largecopy"};

  const char* work_metric() const override { return "routes_per_s"; }

  void setup() override {
    {
      ScopedSpan s(spans(), "hamdecomp.decompose");
      const HamDecomposition& d = hamiltonian_decomposition(15);
      decompose_s_ = s.stop();
      check(d.cycles.size() == 7, "hamiltonian_decomposition(15)");
    }
    {
      ScopedSpan s(spans(), "core.oracle_build");
      oracles_[0] = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
      oracles_[1] = algebraic_theorem1_oracle(16);
      oracles_[2] = algebraic_largecopy_oracle(15);
      build_s_ = s.stop();
    }
    {
      ScopedSpan s(spans(), "embed.sample_check");
      for (int o = 0; o < kOracles; ++o) {
        try {
          const OracleSampleReport rep = oracle_sample_check(
              *oracles_[o], kCheckEdges,
              derive_seed(ctx_.seed, kSampleCheck + o));
          check(rep.edges_checked == kCheckEdges,
                std::string("oracle_sample_check ") + kFamily[o]);
        } catch (const std::exception& e) {
          check(false, std::string("oracle_sample_check ") + kFamily[o] +
                           ": " + e.what());
        }
      }
      sample_check_s_ = s.stop();
    }
    ScopedSpan s(spans(), "core.first_route");
    CountingSink sink;
    const OracleEdge first = oracles_[0]->out_edge(0, 0);
    for (int i = 0; i < oracles_[0]->width(first); ++i) {
      oracles_[0]->path(first, i, sink);
    }
    check(sink.nodes() > 0, "first route");
  }

  void inputs() override {
    // kQueries / 3 seeded guest edges per oracle, interleaved in a seeded
    // order.
    queries_.clear();
    queries_.reserve(kQueries);
    for (int o = 0; o < kOracles; ++o) {
      const std::uint64_t count = (kQueries + kOracles - 1 - o) / kOracles;
      for (const OracleEdge& e :
           sample_guest_edges(*oracles_[o], count,
                              derive_seed(ctx_.seed, kRouteEdges + o))) {
        queries_.push_back({e, o});
      }
    }
    std::uint64_t state = derive_seed(ctx_.seed, kRouteOrder);
    for (std::size_t i = queries_.size() - 1; i > 0; --i) {
      state = derive_seed(state, i);
      std::swap(queries_[i], queries_[state % (i + 1)]);
    }
    latency_ns_.resize(queries_.size());
  }

  Op op() override {
    ScopedSpan s(spans(), "core.route_pass");
    CountingSink sink[kOracles];
    std::uint64_t paths[kOracles] = {};
    auto prev = Clock::now();
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const Query& q = queries_[i];
      const PathOracle& oracle = *oracles_[q.oracle];
      const int w = oracle.width(q.edge);
      for (int k = 0; k < w; ++k) oracle.path(q.edge, k, sink[q.oracle]);
      paths[q.oracle] += w;
      const auto now = Clock::now();
      latency_ns_[i] = static_cast<std::uint32_t>(std::min<std::int64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev)
              .count(),
          0xffffffff));
      prev = now;
    }
    const double seconds = s.stop();

    std::uint64_t sum = 0;
    for (int o = 0; o < kOracles; ++o) {
      sum = derive_seed(sum, sink[o].checksum());
      hops_[o] = sink[o].nodes() - paths[o];
    }
    if (!checksum_) checksum_ = sum ^ (ctx_.corrupt ? 1 : 0);
    check(sum == *checksum_, "streamed-path checksum repeats across passes",
          queries_.size());

    // Per-oracle totals and p50s, then the mix's p99.  The oracles' query
    // latencies do not overlap, so the p50 of the mix would be the theorem1
    // p50 alone; the geometric mean of the three p50s moves with each.
    std::vector<std::uint32_t> per_oracle[kOracles];
    for (int o = 0; o < kOracles; ++o) {
      oracle_ns_[o] = 0;
      per_oracle[o].reserve(queries_.size() / kOracles + 1);
    }
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      oracle_ns_[queries_[i].oracle] += latency_ns_[i];
      per_oracle[queries_[i].oracle].push_back(latency_ns_[i]);
    }
    double log_p50 = 0;
    for (int o = 0; o < kOracles; ++o) {
      p50_us_[o] = nth_us(per_oracle[o], 0.5);
      log_p50 += std::log(p50_us_[o]);
    }
    Op out{seconds, static_cast<double>(queries_.size())};
    out.p50_us = std::exp(log_p50 / kOracles);
    out.p99_us = nth_us(latency_ns_, 0.99);  // rewritten by the next pass
    out.latency_samples = queries_.size();
    return out;
  }

  const char* latency_metric() const override {
    return "route_p50_us: geometric mean of the grid, theorem1 and largecopy "
           "per-query p50s";
  }

  void layers(MetricTable& t) override {
    setup();
    inputs();
    const Op pass = op();
    t.add("hamdecomp.decompose_s", decompose_s_, "s",
          "hamiltonian_decomposition(15), first call in the process");
    t.add("core.oracle_build_s", build_s_, "s", "grid + theorem1 + largecopy");
    t.add("embed.sample_check_s", sample_check_s_, "s",
          fmt("oracle_sample_check, %.0f edges per oracle", kCheckEdges));
    for (int o = 0; o < kOracles; ++o) {
      t.add(std::string("core.") + kFamily[o] + "_ns_per_hop",
            static_cast<double>(oracle_ns_[o]) / hops_[o], "ns",
            "query time / hops streamed, one pass");
    }
    for (int o = 0; o < kOracles; ++o) {
      t.add(std::string("route.") + kFamily[o] + "_p50_us", p50_us_[o], "us",
            fmt("%.0f queries", pass.latency_samples / kOracles));
    }
    const std::string n = fmt("%.0f queries", pass.latency_samples);
    t.add("route.p50_us", pass.p50_us, "us",
          "geometric mean of the per-oracle p50s");
    t.add("route.p99_us", pass.p99_us, "us", n + ", all oracles");
  }

 private:
  struct Query {
    OracleEdge edge;
    int oracle = 0;
  };

  std::unique_ptr<PathOracle> oracles_[kOracles];
  std::vector<Query> queries_;
  std::vector<std::uint32_t> latency_ns_;
  std::optional<std::uint64_t> checksum_;
  std::uint64_t hops_[kOracles] = {};
  std::uint64_t oracle_ns_[kOracles] = {};
  double p50_us_[kOracles] = {};
  double decompose_s_ = 0, build_s_ = 0, sample_check_s_ = 0;
};

// --- driver ------------------------------------------------------------------

constexpr const char* kWorkloads[] = {
    "oracle_phase_q24", "materialized_phase_q16", "recorded_phase_q16",
    "campaign_q10", "route_mix"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx) {
  if (name == "oracle_phase_q24") return std::make_unique<OraclePhaseQ24>(ctx);
  if (name == "materialized_phase_q16") {
    return std::make_unique<MaterializedPhaseQ16>(ctx);
  }
  if (name == "recorded_phase_q16") {
    return std::make_unique<RecordedPhaseQ16>(ctx);
  }
  if (name == "campaign_q10") return std::make_unique<CampaignQ10>(ctx);
  if (name == "route_mix") return std::make_unique<RouteMix>(ctx);
  return nullptr;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setup_reps = 1;
  bool setup_only = false;
  bool corrupt = false;
  bool selftest = false;
  std::string spans_path;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (a == "--setup-reps" && has_value) {
      o.setup_reps = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else if (a == "--selftest") {
      o.selftest = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return o.selftest || o.seconds > 0;
}

/// Usable CPUs of this process (what `nproc` prints), capped at the pool's
/// limit.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) n = CPU_COUNT(&set);
  return std::clamp(n, 1, par::TaskPool::kMaxThreads);
}

/// Pins the calling thread to one CPU while it lives, then restores the
/// thread's previous CPU set.  Pool workers keep every CPU.
class PinThread {
 public:
  explicit PinThread(int cpu) {
    saved_ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (saved_ok_) sched_setaffinity(0, sizeof one, &one);
  }
  ~PinThread() {
    if (saved_ok_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinThread(const PinThread&) = delete;
  PinThread& operator=(const PinThread&) = delete;

 private:
  cpu_set_t saved_;
  bool saved_ok_ = false;
};

/// The CPUs this process may run on.
std::vector<int> cpu_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string meta_json(const Options& o, int threads) {
  const obs::RunMetadata md = obs::RunMetadata::collect();
  char seed[32];
  std::snprintf(seed, sizeof seed, "%llu",
                static_cast<unsigned long long>(o.seed));
  return "{\"workload\": " + json_string(o.workload) + ", \"seed\": " + seed +
         ", \"threads\": " + std::to_string(threads) +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"git_sha\": " + json_string(md.git_sha) +
         ", \"build_type\": " + json_string(md.build_type) + "}";
}

void print_result(const Ledger& ledger, const MetricTable& t) {
  std::printf("error_rate %.6g (%llu failed of %llu operations)%s%s\n",
              ledger.error_rate(),
              static_cast<unsigned long long>(ledger.failed()),
              static_cast<unsigned long long>(ledger.attempted()),
              ledger.failed() ? "; first: " : "",
              ledger.first_failure().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      ledger.failed() == 0 && ledger.attempted() > 0 ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted()),
      static_cast<unsigned long long>(ledger.failed()), t.json().c_str());
}

/// Times one setup of `w`; returns its seconds.
double time_setup(Workload& w) {
  const auto t0 = Clock::now();
  w.setup();
  return seconds_since(t0);
}

/// End-to-end run: setup, timed operations for `seconds` (at least three),
/// whole-run checks.  Peak RSS covers all of it.  With setup_reps > 1 the
/// setup samples are spread over the run: the workload is set up again
/// before the first operation after every seconds / setup_reps, so a burst
/// of host noise sets few of them.  Such a round repeats the setup back to
/// back until it adds up to kSetupRoundS, so a cheap setup gets many
/// samples.  The first setup, in a process that has not yet run an
/// operation, is one sample of its own: repeated there, the 1 ms setup of
/// campaign_q10 read 2.4 ms, against 1 ms once an operation had run.
MetricTable run_end_to_end(const Options& o, const Context& ctx) {
  constexpr double kSetupRoundS = 0.02;
  const bool peak_ok = PeakMemory::reset();
  const auto w = make_workload(o.workload, ctx);
  std::vector<double> setups{time_setup(*w)};
  auto last_setup = Clock::now();
  const auto setup_round = [&] {
    double sum = 0;
    do {
      setups.push_back(time_setup(*w));
      sum += setups.back();
    } while (sum < kSetupRoundS);
    last_setup = Clock::now();
  };
  w->inputs();

  const char* w_latency = w->latency_metric();
  const double slice = o.seconds / o.setup_reps;
  // Operation k runs with the calling thread pinned to the k-th usable
  // CPU, round robin.  On a shared host one CPU can run the same
  // single-threaded pass 20% slower than another for minutes; left to the
  // scheduler, a whole run would sit on one of them and that difference
  // would show between runs.  Rotating, every run samples every CPU.
  const std::vector<int> cpus = cpu_list();
  std::vector<double> rate, p50_us, p99_us;
  std::uint64_t samples = 0;
  const auto loop0 = Clock::now();
  while (rate.size() < 3 || seconds_since(loop0) < o.seconds) {
    if (o.setup_reps > 1 && seconds_since(last_setup) >= slice) {
      setup_round();
    }
    std::optional<PinThread> pin;
    if (!cpus.empty()) pin.emplace(cpus[rate.size() % cpus.size()]);
    const Op op = w->op();
    pin.reset();
    rate.push_back(op.work / op.seconds);
    if (std::isnan(op.p50_us)) {
      p50_us.push_back(op.seconds * 1e6);
    } else {
      p50_us.push_back(op.p50_us);
      samples += op.latency_samples;
    }
    if (!std::isnan(op.p99_us)) p99_us.push_back(op.p99_us);
  }
  w->finish();
  const std::optional<double> peak = peak_ok ? PeakMemory::peak_mb()
                                             : std::nullopt;

  std::vector<double> op_s;
  for (const double r : rate) op_s.push_back(1.0 / r);
  std::printf("operations %zu; seconds per unit of work: min %.4g q1 %.4g "
              "median %.4g q3 %.4g max %.4g\n",
              rate.size(), quantile(op_s, 0), quantile(op_s, 0.25),
              quantile(op_s, 0.5), quantile(op_s, 0.75), quantile(op_s, 1));
  std::printf("setups %zu; seconds: min %.4g q1 %.4g median %.4g q3 %.4g "
              "max %.4g\n",
              setups.size(), quantile(setups, 0), quantile(setups, 0.25),
              quantile(setups, 0.5), quantile(setups, 0.75),
              quantile(setups, 1));

  const std::string reps = fmt("median of %.0f operations", rate.size());
  MetricTable t;
  t.add("setup_s", median(setups), "s",
        fmt("median of %.0f setups spread over the run", setups.size()));
  if (peak) {
    t.add("peak_rss_mb", *peak, "MB", "VmHWM after a reset at start");
  } else {
    t.absent("peak_rss_mb", "MB", "VmHWM reset unavailable");
  }
  t.add("throughput_per_s", median(rate), "1/s",
        std::string("= ") + w->work_metric() + ", " + reps);
  t.add("op_p50_us", median(p50_us), "us",
        w_latency ? std::string(w_latency) +
                        fmt(", median over operations, %.0f samples", samples)
                  : "operation wall time (work / throughput_per_s), " + reps);
  t.print(("end-to-end: " + o.workload).c_str());
  if (!p99_us.empty()) {
    std::printf("  %-32s %16.6g %-6s %s\n", "route_p99_us", median(p99_us),
                "us",
                fmt("median of per-pass p99, %.0f queries", samples).c_str());
  }
  return t;
}

/// Traced run: every workload's layer pass, each layer's self time over
/// those passes, then the span-recording overhead on the selected workload.
MetricTable run_traced(const Options& o, const Context& ctx) {
  MetricTable t;
  for (const char* name :
       {"route_mix", "oracle_phase_q24", "materialized_phase_q16",
        "campaign_q10"}) {
    ScopedSpan s(*ctx.spans, std::string("bench.layers.") + name);
    make_workload(name, ctx)->layers(t);
  }

  // Self time per layer over the layer passes: each span's duration minus
  // its children's.
  const auto& spans = ctx.spans->spans();
  for (const char* layer : {"hamdecomp", "core", "embed", "sim", "obs",
                            "bench"}) {
    double self = 0;
    const std::string prefix = std::string(layer) + ".";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name.rfind(prefix, 0) == 0) {
        self += ctx.spans->self_seconds(i);
      }
    }
    t.add(prefix + "self_s", self, "s", "sum of span self times");
  }

  // bench.span_overhead: the selected workload's operation with span
  // recording on vs off, alternating, medians.
  std::vector<double> on, off;
  {
    const auto w = make_workload(o.workload, ctx);
    w->setup();
    w->inputs();
    const auto t0 = Clock::now();
    while (on.size() < 2 || seconds_since(t0) < o.seconds) {
      ctx.spans->set_enabled(false);
      off.push_back(w->op().seconds);
      ctx.spans->set_enabled(true);
      on.push_back(w->op().seconds);
    }
  }
  t.add("bench.span_overhead", median(on) / median(off), "ratio",
        "recorded / unrecorded operation of " + o.workload + ", " +
            fmt("%.0f pairs", on.size()));

  t.print("per-layer (traced run)");
  return t;
}

int selftest() {
  int failures = 0;
  const std::optional<double> rise = touched_peak_rise_mb(64);
  if (!rise) {
    std::printf("selftest peak memory: SKIP (VmHWM reset unavailable)\n");
    return 77;
  }
  const bool rose = *rise >= 64.0;
  std::printf("selftest peak memory: 64 MiB stage reads +%.1f MB: %s\n",
              *rise, rose ? "ok" : "FAIL");
  failures += !rose;
  // After the 64 MiB block is freed, a fresh stage must not inherit its
  // peak — the property a ru_maxrss delta lacks.
  const std::optional<double> small = touched_peak_rise_mb(1);
  const bool reset = small && *small < 32.0;
  std::printf("selftest peak memory: next 1 MiB stage reads +%.1f MB: %s\n",
              small.value_or(-1), reset ? "ok" : "FAIL");
  failures += !reset;
  return failures ? 1 : 0;
}

int run(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;
  if (o.selftest) return selftest();

  const int threads = usable_cpus();
  par::TaskPool pool(threads);
  const par::PoolScope scope(pool);
  // One empty region first, so no workload's setup waits on worker threads
  // that are still starting.
  pool.run_chunks(static_cast<std::size_t>(threads), [](std::size_t, int) {});
  Spans spans(o.trace);
  Ledger ledger;
  const Context ctx{o.seed, o.corrupt, &spans, &ledger, &pool};
  const auto w = make_workload(o.workload, ctx);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; one of:",
                 o.workload.c_str());
    for (const char* n : kWorkloads) std::fprintf(stderr, " %s", n);
    std::fprintf(stderr, "\n");
    return 2;
  }

  if (o.setup_only) {
    const auto t0 = Clock::now();
    w->setup();
    std::printf("{\"setup_s\": %.17g}\n", seconds_since(t0));
    return ledger.failed() ? 1 : 0;
  }

  const std::string meta = meta_json(o, threads);
  std::printf("meta %s\n", meta.c_str());
  const MetricTable t =
      o.trace ? run_traced(o, ctx) : run_end_to_end(o, ctx);
  if (!o.spans_path.empty() && o.trace) {
    std::ofstream out(o.spans_path);
    out << spans.to_json(meta);
    if (!out) std::fprintf(stderr, "perfbench: cannot write spans file\n");
  }
  print_result(ledger, t);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
