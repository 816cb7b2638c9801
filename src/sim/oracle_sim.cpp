#include "sim/oracle_sim.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/step_kernel.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

namespace {

/// NodeSink that feeds the RoutePlan streaming API and records global link
/// ids on the side.  One instance per route; plan.end_route_unlinked() by
/// the caller.
class PlanSink final : public NodeSink {
 public:
  PlanSink(simcore::RoutePlan& plan, std::vector<std::uint64_t>& glinks,
           int dims)
      : plan_(plan), glinks_(glinks), dims_(dims) {}

  void push(Node v) override {
    if (!first_) {
      const Node diff = prev_ ^ v;
      HP_CHECK(std::popcount(diff) == 1, "oracle emitted a non-hypercube hop");
      glinks_.push_back(static_cast<std::uint64_t>(prev_) * dims_ +
                        std::countr_zero(diff));
    }
    plan_.push_node(v);
    prev_ = v;
    first_ = false;
  }

 private:
  simcore::RoutePlan& plan_;
  std::vector<std::uint64_t>& glinks_;
  int dims_;
  Node prev_ = 0;
  bool first_ = true;
};

}  // namespace

void add_oracle_route(const PathOracle& oracle, const OracleEdge& edge,
                      int path_index, std::uint32_t release_step,
                      simcore::RoutePlan& plan,
                      std::vector<std::uint64_t>& glinks) {
  PlanSink sink(plan, glinks, oracle.host_dims());
  plan.begin_route(release_step);
  oracle.path(edge, path_index, sink);
  plan.end_route_unlinked(oracle.host_dims(), "oracle route invalid");
}

OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec) {
  HP_PROFILE_SPAN("sim/oracle_phase");
  const int dims = oracle.host_dims();
  const int p = spec.packets_per_edge;
  HP_CHECK(p > 0, "packets_per_edge must be positive");

  OraclePhaseResult result;

  // Call-local, not the thread's step_scratch(): the plan-sized state is
  // freed on return instead of pinning a Q_24 phase's memory to the thread.
  simcore::StepScratch scratch;
  simcore::RoutePlan& plan = scratch.plan;
  std::vector<std::uint64_t> glinks;  // global link id per hop, in hop order

  {
    // Streaming compilation: phase_packets ordering (bundle indices
    // stable-sorted by increasing path length; packet j rides
    // order[j mod width]), but no Packet or HostPath ever exists.
    HP_PROFILE_SPAN("compile");
    std::vector<int> order;
    for (const OracleEdge& e : edges) {
      const int w = oracle.width(e);
      HP_CHECK(w > 0, "demanded guest edge has an empty bundle");
      order.resize(w);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return oracle.path_hops(e, a) < oracle.path_hops(e, b);
      });
      for (int j = 0; j < p; ++j) {
        add_oracle_route(oracle, e, order[j % w], 0, plan, glinks);
      }
    }
    if (plan.route_offsets.empty()) plan.route_offsets.push_back(0);
  }

  // Compact renumbering: sorted-unique global ids become the plan's local
  // 32-bit link ids; the max static link load falls out of the sorted run
  // lengths before deduplication.
  std::vector<std::uint64_t> uniq;
  {
    HP_PROFILE_SPAN("renumber");
    uniq = glinks;
    std::sort(uniq.begin(), uniq.end());
    std::uint64_t run = 0;
    std::uint64_t prev = ~std::uint64_t{0};
    for (const std::uint64_t g : uniq) {
      run = (g == prev) ? run + 1 : 1;
      prev = g;
      if (run > result.peak_congestion) result.peak_congestion = run;
    }
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    plan.link_of_hop.reserve(glinks.size());
    for (const std::uint64_t g : glinks) {
      const auto it = std::lower_bound(uniq.begin(), uniq.end(), g);
      plan.link_of_hop.push_back(
          static_cast<std::uint32_t>(it - uniq.begin()));
    }
  }

  const std::uint32_t num_routes = plan.num_routes();
  const std::uint64_t num_links = uniq.size();
  result.unique_links = num_links;
  result.route_nodes = plan.route_nodes.size();

  // Per-local-link dimension for transmission accounting: a global id is
  // tail·dims + dim, so the dimension survives renumbering as id mod dims.
  std::vector<std::uint8_t> dim_of(num_links);
  for (std::uint64_t l = 0; l < num_links; ++l) {
    dim_of[l] = static_cast<std::uint8_t>(uniq[l] % dims);
  }

  result.compiled_bytes =
      plan.route_nodes.size() * sizeof(Node) +
      plan.route_offsets.size() * sizeof(std::uint32_t) +
      plan.link_of_hop.size() * sizeof(std::uint32_t) +
      plan.route_len.size() * sizeof(std::uint32_t) +
      plan.release.size() * sizeof(std::uint32_t) +
      uniq.size() * sizeof(std::uint64_t) + dim_of.size() +
      num_links * 3 * sizeof(std::uint32_t) +  // arena head/tail/depth
      num_routes * 2 * sizeof(std::uint32_t);  // arena next + hop counters

  // The shared store-and-forward engine, untraced and fault-free (phase
  // traffic all releases at step 0); only the dimension of a link comes
  // from the table instead of the dense id's arithmetic.
  SimResult sim = simcore::run_plan<false, false>(
      plan, num_links, dims, simcore::TableLinkDim{dim_of.data()}, scratch,
      Arbitration::kFifo, spec.max_steps, nullptr, nullptr, false, nullptr);
  result.makespan = sim.makespan;
  result.delivered = num_routes;  // run_plan returns once every route arrived
  result.total_transmissions = sim.total_transmissions;
  result.max_queue = static_cast<std::uint32_t>(sim.max_queue);
  result.dim_transmissions = std::move(sim.dim_transmissions);
  return result;
}

}  // namespace hyperpath
