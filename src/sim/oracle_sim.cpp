#include "sim/oracle_sim.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/phase.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

namespace {

/// NodeSink that feeds the RoutePlan streaming API.
class PlanSink final : public NodeSink {
 public:
  explicit PlanSink(simcore::RoutePlan& plan) : plan_(plan) {}

  void push(Node v) override { plan_.push_node(v); }

 private:
  simcore::RoutePlan& plan_;
};

/// The demanded edges' oracle bundles as compile_phase's source.
struct OracleBundles {
  const PathOracle& oracle;
  std::span<const OracleEdge> edges;

  int width(std::size_t e) const { return oracle.width(edges[e]); }
  std::uint32_t hops(std::size_t e, int i) const {
    return oracle.path_hops(edges[e], i);
  }
  void stream(std::size_t e, int i, simcore::RoutePlan& plan) const {
    PlanSink sink(plan);
    oracle.path(edges[e], i, sink);
  }
};

}  // namespace

void add_oracle_route(const PathOracle& oracle, const OracleEdge& edge,
                      int path_index, std::uint32_t release_step,
                      simcore::RoutePlan& plan,
                      std::vector<std::uint64_t>& glinks) {
  const Hypercube host(oracle.host_dims());
  PlanSink sink(plan);
  plan.begin_route(release_step);
  oracle.path(edge, path_index, sink);
  plan.end_route(host, "oracle route invalid");
  const auto nodes = plan.nodes(plan.num_routes() - 1);
  for (std::size_t h = 0; h + 1 < nodes.size(); ++h) {
    glinks.push_back(host.edge_id(nodes[h], nodes[h + 1]));
  }
}

OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec) {
  HP_PROFILE_SPAN("sim/oracle_phase");
  const int dims = oracle.host_dims();
  const int p = spec.packets_per_edge;
  HP_CHECK(p > 0, "packets_per_edge must be positive");

  // Call-local, not the thread's step_scratch(): the plan-sized state is
  // freed on return instead of pinning a Q_24 phase's memory to the thread.
  simcore::StepScratch scratch;
  const simcore::RoutePlan& plan = scratch.plan;
  {
    HP_PROFILE_SPAN("compile");
    compile_phase(scratch.plan, Hypercube(dims), edges.size(), p,
                  OracleBundles{oracle, edges}, "oracle route invalid");
  }

  // The shared store-and-forward tail, untraced and fault-free (phase
  // traffic all releases at step 0).
  const SimResult sim =
      simcore::run_plan(scratch, dims, Arbitration::kFifo, spec.max_steps,
                        nullptr, nullptr, false, nullptr);

  OraclePhaseResult result;
  const std::uint32_t num_routes = plan.num_routes();
  result.makespan = sim.makespan;
  result.delivered = num_routes;  // run_plan returns once every route arrived
  result.total_transmissions = sim.total_transmissions;
  result.max_queue = static_cast<std::uint32_t>(sim.max_queue);
  result.dim_transmissions = sim.dim_transmissions;
  result.queues = plan.num_queues();
  result.route_nodes = plan.route_nodes.size();

  // Static link loads, counted over the queues either numbering chose.
  {
    std::vector<std::uint32_t> load(plan.num_queues(), 0);
    for (const std::uint32_t q : plan.link_of_hop) ++load[q];
    for (const std::uint32_t n : load) {
      if (n > 0) ++result.unique_links;
      result.peak_congestion =
          std::max<std::uint64_t>(result.peak_congestion, n);
    }
  }

  // The arrays the sweep runs on: the plan, the arena's queue records and
  // the per-route next links and hop counters.  Transient numbering keys
  // and the rank table's global ids show in measured peak RSS, not here.
  result.compiled_bytes =
      plan.route_nodes.size() * sizeof(Node) +
      plan.route_offsets.size() * sizeof(std::uint32_t) +
      plan.link_of_hop.size() * sizeof(std::uint32_t) +
      plan.route_len.size() * sizeof(std::uint32_t) +
      plan.release.size() * sizeof(std::uint32_t) +
      result.queues * 3 * sizeof(std::uint32_t) +  // queue head/tail/depth
      std::uint64_t{num_routes} * 2 * sizeof(std::uint32_t);  // next + hop
  return result;
}

}  // namespace hyperpath
