#include "sim/phase.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/simcore.hpp"

namespace hyperpath {

void phase_order(std::span<const std::uint32_t> hops, std::vector<int>& order) {
  order.resize(hops.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return hops[a] < hops[b]; });
}

namespace {

/// An embedding's bundles as compile_phase's source.
struct EmbeddingBundles {
  const MultiPathEmbedding& emb;

  int width(std::size_t e) const {
    return static_cast<int>(emb.paths(e).size());
  }
  std::uint32_t hops(std::size_t e, int i) const {
    const std::size_t nodes = emb.paths(e)[i].size();
    return static_cast<std::uint32_t>(nodes > 0 ? nodes - 1 : 0);
  }
  void stream(std::size_t e, int i, simcore::RoutePlan& plan) const {
    for (const Node v : emb.paths(e)[i]) plan.push_node(v);
  }
};

/// A k-copy embedding as compile_phase's source: bundle c·|E| + e is copy
/// c's single path for guest edge e.
struct KCopyBundles {
  const KCopyEmbedding& emb;

  const HostPath& path(std::size_t k) const {
    const std::size_t edges = emb.guest().num_edges();
    return emb.path(static_cast<int>(k / edges), k % edges);
  }
  int width(std::size_t) const { return 1; }
  std::uint32_t hops(std::size_t k, int) const {
    const std::size_t nodes = path(k).size();
    return static_cast<std::uint32_t>(nodes > 0 ? nodes - 1 : 0);
  }
  void stream(std::size_t k, int, simcore::RoutePlan& plan) const {
    for (const Node v : path(k)) plan.push_node(v);
  }
};

/// Compiles one phase of `num_edges` bundles from `bundles` into the
/// calling thread's scratch plan and runs it on the shared tail,
/// fault-free.  Timed like StoreForwardSim::run: elapsed_seconds spans
/// compile and run.
template <typename Bundles>
SimResult run_phase(const Hypercube& host, std::size_t num_edges, int p,
                    const Bundles& bundles, Arbitration policy,
                    obs::TraceSink* sink) {
  HP_CHECK(p >= 1, "phase needs at least one packet per edge");
  const auto t0 = std::chrono::steady_clock::now();
  HP_PROFILE_SPAN("sim/phase");
  simcore::StepScratch& scratch = simcore::step_scratch();
  {
    HP_PROFILE_SPAN("compile");
    scratch.plan.clear();
    compile_phase(scratch.plan, host, num_edges, p, bundles,
                  "packet route invalid");
  }
  SimResult result = simcore::run_plan(scratch, host.dims(), policy, 1 << 22,
                                       sink, nullptr, false, nullptr);
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace

std::vector<Packet> phase_packets(const MultiPathEmbedding& emb, int p) {
  HP_PROFILE_SPAN("sim/phase_packets");
  HP_CHECK(p >= 1, "phase needs at least one packet per edge");
  std::vector<Packet> packets;
  packets.reserve(emb.guest().num_edges() * static_cast<std::size_t>(p));
  std::vector<std::uint32_t> hops;
  std::vector<int> order;
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    const int w = schedule_bundle(EmbeddingBundles{emb}, e, hops, order);
    for (int j = 0; j < p; ++j) {
      packets.push_back({emb.paths(e)[order[j % w]], 0,
                         static_cast<std::uint32_t>(e)});
    }
  }
  return packets;
}

std::vector<Packet> phase_packets(const KCopyEmbedding& emb, int p) {
  HP_PROFILE_SPAN("sim/phase_packets");
  HP_CHECK(p >= 1, "phase needs at least one packet per edge");
  std::vector<Packet> packets;
  packets.reserve(emb.guest().num_edges() *
                  static_cast<std::size_t>(p * emb.num_copies()));
  for (int c = 0; c < emb.num_copies(); ++c) {
    for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
      for (int j = 0; j < p; ++j) {
        packets.push_back({emb.path(c, e), 0, static_cast<std::uint32_t>(e)});
      }
    }
  }
  return packets;
}

SimResult measure_phase_cost(const MultiPathEmbedding& emb, int p,
                             Arbitration policy, obs::TraceSink* sink) {
  return run_phase(emb.host(), emb.guest().num_edges(), p,
                   EmbeddingBundles{emb}, policy, sink);
}

SimResult measure_phase_cost(const KCopyEmbedding& emb, int p,
                             Arbitration policy, obs::TraceSink* sink) {
  return run_phase(emb.host(),
                   emb.guest().num_edges() *
                       static_cast<std::size_t>(emb.num_copies()),
                   p, KCopyBundles{emb}, policy, sink);
}

}  // namespace hyperpath
