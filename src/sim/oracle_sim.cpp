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

/// Appends a copy of plan route r — its nodes and its global link ids —
/// as a new route, validated like a streamed one.  Copies by index: both
/// vectors may reallocate while they grow.
void replay_route(simcore::RoutePlan& plan,
                  std::vector<std::uint64_t>& glinks, std::uint32_t r,
                  int dims) {
  const std::uint32_t hop_begin = plan.route_offsets[r];
  const std::uint32_t hop_end = plan.route_offsets[r + 1];
  const std::size_t node_begin = std::size_t{hop_begin} + r;
  plan.begin_route(plan.release[r]);
  for (std::size_t i = node_begin; i <= node_begin + (hop_end - hop_begin);
       ++i) {
    plan.push_node(plan.route_nodes[i]);
  }
  plan.end_route_unlinked(dims, "oracle route invalid");
  for (std::uint32_t h = hop_begin; h < hop_end; ++h) {
    const std::uint64_t g = glinks[h];
    glinks.push_back(g);
  }
}

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

CompactLinks renumber_links(std::vector<std::uint64_t> glinks, int dims) {
  HP_CHECK(dims > 0, "renumber_links needs a positive host dimension");
  const std::size_t n = glinks.size();
  HP_CHECK(n <= std::size_t{1} << 32, "too many hops for 32-bit link ids");
  CompactLinks out;
  if (n == 0) return out;

  std::uint64_t max_glink = 0;
  for (const std::uint64_t g : glinks) max_glink = std::max(max_glink, g);
  const int hop_bits = std::bit_width(n - 1);
  const int glink_bits = std::bit_width(max_glink);
  HP_CHECK(hop_bits + glink_bits <= 64,
           "global link ids too wide for 64-bit (glink, hop) sort keys");

  // Digits of at most 11 bits, spread evenly over the global-id bits; the
  // hop index below them is payload, never sorted on.
  constexpr int kMaxDigitBits = 11;
  const int passes = (glink_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = passes == 0 ? 0 : (glink_bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << digit_bits;
  const std::uint64_t digit_mask = radix - 1;

  // Pack keys in place and count every pass's digits in the same sweep.
  std::vector<std::size_t> count(static_cast<std::size_t>(passes) * radix, 0);
  for (std::size_t h = 0; h < n; ++h) {
    const std::uint64_t g = glinks[h];
    for (int d = 0; d < passes; ++d) {
      ++count[d * radix + ((g >> (d * digit_bits)) & digit_mask)];
    }
    glinks[h] = (g << hop_bits) | h;
  }

  // LSD passes, forward scatter: stable, so each pass keeps the order the
  // lower digits established.
  std::vector<std::uint64_t> scratch(passes > 0 ? n : 0);
  for (int d = 0; d < passes; ++d) {
    std::size_t* const pos = count.data() + d * radix;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < radix; ++b) {
      const std::size_t c = pos[b];
      pos[b] = sum;
      sum += c;
    }
    const int shift = hop_bits + d * digit_bits;
    for (const std::uint64_t key : glinks) {
      scratch[pos[(key >> shift) & digit_mask]++] = key;
    }
    glinks.swap(scratch);
  }
  scratch = {};

  // Equal global ids are now adjacent and ascending, so a link's compact id
  // is the number of distinct ids before it, and its run length is its load.
  const std::uint64_t hop_mask = (std::uint64_t{1} << hop_bits) - 1;
  out.link_of_hop.resize(n);
  std::uint64_t prev = glinks[0] >> hop_bits;
  std::uint32_t id = 0;
  std::uint64_t run = 0;
  out.dim_of.push_back(static_cast<std::uint8_t>(prev % dims));
  for (const std::uint64_t key : glinks) {
    const std::uint64_t g = key >> hop_bits;
    if (g != prev) {
      prev = g;
      ++id;
      run = 0;
      out.dim_of.push_back(static_cast<std::uint8_t>(g % dims));
    }
    ++run;
    out.peak_congestion = std::max(out.peak_congestion, run);
    out.link_of_hop[key & hop_mask] = id;
  }
  return out;
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
    // order[j mod width]), but no Packet or HostPath ever exists.  The
    // first min(p, w) packets stream their paths from the oracle; packet
    // j ≥ w replays route first + (j mod w), already in the plan.
    HP_PROFILE_SPAN("compile");
    std::vector<int> order;
    std::vector<std::uint32_t> hops;
    const auto schedule = [&](const OracleEdge& e) {
      const int w = oracle.width(e);
      HP_CHECK(w > 0, "demanded guest edge has an empty bundle");
      hops.resize(w);
      for (int i = 0; i < w; ++i) hops[i] = oracle.path_hops(e, i);
      order.resize(w);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](int a, int b) { return hops[a] < hops[b]; });
      return w;
    };

    // Exact sizes up front, so the plan's arrays never regrow mid-compile.
    std::uint64_t total_hops = 0;
    for (const OracleEdge& e : edges) {
      const int w = schedule(e);
      for (int j = 0; j < p; ++j) total_hops += hops[order[j % w]];
    }
    const std::size_t routes = edges.size() * static_cast<std::size_t>(p);
    plan.route_nodes.reserve(total_hops + routes);
    plan.route_offsets.reserve(routes + 1);
    plan.route_len.reserve(routes);
    plan.release.reserve(routes);
    glinks.reserve(total_hops);

    for (const OracleEdge& e : edges) {
      const int w = schedule(e);
      const std::uint32_t first = plan.num_routes();
      for (int j = 0; j < p; ++j) {
        if (j < w) {
          add_oracle_route(oracle, e, order[j], 0, plan, glinks);
        } else {
          replay_route(plan, glinks, first + j % w, dims);
        }
      }
    }
    if (plan.route_offsets.empty()) plan.route_offsets.push_back(0);
  }

  // Compact renumbering: each global id becomes its rank among the
  // distinct ids — the plan's local 32-bit link id — and the max static
  // link load is the longest run of one id.
  CompactLinks links;
  {
    HP_PROFILE_SPAN("renumber");
    links = renumber_links(std::move(glinks), dims);
  }
  plan.link_of_hop = std::move(links.link_of_hop);
  result.peak_congestion = links.peak_congestion;

  const std::uint32_t num_routes = plan.num_routes();
  const std::uint64_t num_links = links.dim_of.size();
  result.unique_links = num_links;
  result.route_nodes = plan.route_nodes.size();

  // The arrays the sweep runs on: the plan, the per-link dimension table,
  // the arena and the hop counters.  The radix sort's transient keys are
  // freed before the sweep and show in measured peak RSS, not here.
  result.compiled_bytes =
      plan.route_nodes.size() * sizeof(Node) +
      plan.route_offsets.size() * sizeof(std::uint32_t) +
      plan.link_of_hop.size() * sizeof(std::uint32_t) +
      plan.route_len.size() * sizeof(std::uint32_t) +
      plan.release.size() * sizeof(std::uint32_t) + links.dim_of.size() +
      num_links * 3 * sizeof(std::uint32_t) +  // arena head/tail/depth
      num_routes * 2 * sizeof(std::uint32_t);  // arena next + hop counters

  // The shared store-and-forward engine, untraced and fault-free (phase
  // traffic all releases at step 0); only the dimension of a link comes
  // from the table instead of the dense id's arithmetic.
  SimResult sim;
  {
    HP_PROFILE_SPAN("steps");
    sim = simcore::run_plan<false, false>(
        plan, num_links, dims, simcore::TableLinkDim{links.dim_of.data()},
        scratch, Arbitration::kFifo, spec.max_steps, nullptr, nullptr, false,
        nullptr);
  }
  result.makespan = sim.makespan;
  result.delivered = num_routes;  // run_plan returns once every route arrived
  result.total_transmissions = sim.total_transmissions;
  result.max_queue = static_cast<std::uint32_t>(sim.max_queue);
  result.dim_transmissions = std::move(sim.dim_transmissions);
  return result;
}

}  // namespace hyperpath
