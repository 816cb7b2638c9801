#include "sim/phase.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/simcore.hpp"
#include "sim/step_kernel.hpp"

namespace hyperpath {

void phase_order(std::span<const std::uint32_t> hops, std::vector<int>& order) {
  order.resize(hops.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return hops[a] < hops[b]; });
}

namespace {

/// The phase schedule of every guest edge of `emb`, in edge order:
/// visit(e, bundle, order) once per edge, order from phase_order.
template <typename Visit>
void for_each_scheduled_edge(const MultiPathEmbedding& emb, Visit&& visit) {
  std::vector<std::uint32_t> hops;
  std::vector<int> order;
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    const auto bundle = emb.paths(e);
    HP_CHECK(!bundle.empty(), "phase needs a nonempty bundle per guest edge");
    // Node counts order the paths exactly as hop counts do.
    hops.resize(bundle.size());
    for (std::size_t i = 0; i < bundle.size(); ++i) {
      hops[i] = static_cast<std::uint32_t>(bundle[i].size());
    }
    phase_order(hops, order);
    visit(e, bundle, std::span<const int>(order));
  }
}

/// Compiles one phase into the calling thread's scratch plan through
/// `compile(plan)` and runs it on the one step loop, fault-free.  Timed
/// like StoreForwardSim::run: elapsed_seconds spans compile and run.
template <typename Compile>
SimResult run_phase(const Hypercube& host, Compile&& compile,
                    Arbitration policy, obs::TraceSink* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  HP_PROFILE_SPAN("sim/phase");
  simcore::StepScratch& scratch = simcore::step_scratch();
  {
    HP_PROFILE_SPAN("compile");
    HP_CHECK(host.num_directed_edges() <= 0xffffffffull,
             "route plan needs 32-bit link ids (hypercube too large)");
    scratch.plan.clear();
    compile(scratch.plan);
    if (scratch.plan.route_offsets.empty()) {
      scratch.plan.route_offsets.push_back(0);
    }
  }
  const std::uint64_t num_links = host.num_directed_edges();
  const int dims = host.dims();
  const simcore::DenseLinkDim link_dim{static_cast<std::uint64_t>(dims)};
  constexpr int kMaxSteps = 1 << 22;
  SimResult result =
      sink != nullptr
          ? simcore::run_plan<true, false>(scratch.plan, num_links, dims,
                                           link_dim, scratch, policy,
                                           kMaxSteps, sink, nullptr, false,
                                           nullptr)
          : simcore::run_plan<false, false>(scratch.plan, num_links, dims,
                                            link_dim, scratch, policy,
                                            kMaxSteps, nullptr, nullptr,
                                            false, nullptr);
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
  for_each_scheduled_edge(emb, [&](std::size_t e,
                                   std::span<const HostPath> bundle,
                                   std::span<const int> order) {
    for (int j = 0; j < p; ++j) {
      Packet pk;
      pk.route = bundle[order[j % order.size()]];
      pk.tag = static_cast<std::uint32_t>(e);
      packets.push_back(std::move(pk));
    }
  });
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
        Packet pk;
        pk.route = emb.path(c, e);
        pk.tag = static_cast<std::uint32_t>(e);
        packets.push_back(std::move(pk));
      }
    }
  }
  return packets;
}

SimResult measure_phase_cost(const MultiPathEmbedding& emb, int p,
                             Arbitration policy, obs::TraceSink* sink) {
  HP_CHECK(p >= 1, "phase needs at least one packet per edge");
  return run_phase(
      emb.host(),
      [&](simcore::RoutePlan& plan) {
        // Exact sizes first, so the plan never regrows mid-compile.
        std::size_t total_nodes = 0;
        for_each_scheduled_edge(emb, [&](std::size_t,
                                         std::span<const HostPath> bundle,
                                         std::span<const int> order) {
          for (int j = 0; j < p; ++j) {
            total_nodes += bundle[order[j % order.size()]].size();
          }
        });
        plan.reserve(emb.guest().num_edges() * static_cast<std::size_t>(p),
                     total_nodes);
        for_each_scheduled_edge(emb, [&](std::size_t,
                                         std::span<const HostPath> bundle,
                                         std::span<const int> order) {
          for (int j = 0; j < p; ++j) {
            plan.add_route(emb.host(), bundle[order[j % order.size()]], 0);
          }
        });
      },
      policy, sink);
}

SimResult measure_phase_cost(const KCopyEmbedding& emb, int p,
                             Arbitration policy, obs::TraceSink* sink) {
  HP_CHECK(p >= 1, "phase needs at least one packet per edge");
  return run_phase(
      emb.host(),
      [&](simcore::RoutePlan& plan) {
        const std::size_t edges = emb.guest().num_edges();
        std::size_t total_nodes = 0;
        for (int c = 0; c < emb.num_copies(); ++c) {
          for (std::size_t e = 0; e < edges; ++e) {
            total_nodes += emb.path(c, e).size() * static_cast<std::size_t>(p);
          }
        }
        plan.reserve(edges * static_cast<std::size_t>(p * emb.num_copies()),
                     total_nodes);
        for (int c = 0; c < emb.num_copies(); ++c) {
          for (std::size_t e = 0; e < edges; ++e) {
            for (int j = 0; j < p; ++j) {
              plan.add_route(emb.host(), emb.path(c, e), 0);
            }
          }
        }
      },
      policy, sink);
}

}  // namespace hyperpath
