#include "sim/simcore.hpp"

#include <bit>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "sim/packet.hpp"

namespace hyperpath::simcore {

LinkFifoArena::LinkFifoArena(std::uint64_t num_links, std::size_t num_packets)
    : queue_(num_links), next_(num_packets, kNil) {}

void LinkFifoArena::reset(std::uint64_t num_links, std::size_t num_packets) {
  queue_.assign(num_links, LinkQueue{});
  next_.assign(num_packets, kNil);
}

void RoutePlan::clear() {
  route_nodes.clear();
  route_offsets.clear();
  link_of_hop.clear();
  route_len.clear();
  release.clear();
}

void RoutePlan::reserve(std::size_t routes, std::size_t total_nodes) {
  route_nodes.reserve(total_nodes);
  route_offsets.reserve(routes + 1);
  link_of_hop.reserve(total_nodes);  // hops < nodes; one reserve covers both
  route_len.reserve(routes);
  release.reserve(routes);
}

void RoutePlan::add_route(const Hypercube& host, const HostPath& route,
                          std::uint32_t release_step,
                          const char* invalid_msg) {
  HP_CHECK(is_valid_path(host, route), invalid_msg);
  if (route_offsets.empty()) route_offsets.push_back(0);
  route_nodes.insert(route_nodes.end(), route.begin(), route.end());
  for (std::size_t h = 0; h + 1 < route.size(); ++h) {
    link_of_hop.push_back(
        static_cast<std::uint32_t>(host.edge_id(route[h], route[h + 1])));
  }
  route_offsets.push_back(static_cast<std::uint32_t>(link_of_hop.size()));
  route_len.push_back(static_cast<std::uint32_t>(route.size() - 1));
  release.push_back(release_step);
}

void RoutePlan::begin_route(std::uint32_t release_step) {
  if (route_offsets.empty()) route_offsets.push_back(0);
  stream_start_ = route_nodes.size();
  stream_release_ = release_step;
}

void RoutePlan::push_node(Node v) { route_nodes.push_back(v); }

void RoutePlan::end_route(const Hypercube& host, const char* invalid_msg) {
  HP_CHECK(host.num_directed_edges() <= 0xffffffffull,
           "route plan needs 32-bit link ids (hypercube too large)");
  const std::size_t len = route_nodes.size() - stream_start_;
  HP_CHECK(len >= 1, invalid_msg);
  const Node* nodes = route_nodes.data() + stream_start_;
  HP_CHECK(host.contains(nodes[0]), invalid_msg);
  for (std::size_t h = 0; h + 1 < len; ++h) {
    HP_CHECK(host.contains(nodes[h + 1]) &&
                 std::popcount(nodes[h] ^ nodes[h + 1]) == 1,
             invalid_msg);
    link_of_hop.push_back(
        static_cast<std::uint32_t>(host.edge_id(nodes[h], nodes[h + 1])));
  }
  route_offsets.push_back(static_cast<std::uint32_t>(link_of_hop.size()));
  route_len.push_back(static_cast<std::uint32_t>(len - 1));
  release.push_back(stream_release_);
}

void RoutePlan::end_route_unlinked(int dims, const char* invalid_msg) {
  const std::size_t len = route_nodes.size() - stream_start_;
  HP_CHECK(len >= 1, invalid_msg);
  const Node* nodes = route_nodes.data() + stream_start_;
  const std::uint64_t num_nodes = pow2(dims);
  HP_CHECK(nodes[0] < num_nodes, invalid_msg);
  for (std::size_t h = 0; h + 1 < len; ++h) {
    HP_CHECK(nodes[h + 1] < num_nodes &&
                 std::popcount(nodes[h] ^ nodes[h + 1]) == 1,
             invalid_msg);
  }
  // Offsets still accumulate hop counts so nodes(r) indexing holds even
  // though link_of_hop is filled by the caller after renumbering.
  const std::uint64_t hops_total =
      static_cast<std::uint64_t>(route_offsets.back()) + (len - 1);
  HP_CHECK(hops_total <= 0xffffffffull, "route plan hop count overflow");
  route_offsets.push_back(static_cast<std::uint32_t>(hops_total));
  route_len.push_back(static_cast<std::uint32_t>(len - 1));
  release.push_back(stream_release_);
}

void RoutePlan::rebuild(const Hypercube& host,
                        const std::vector<Packet>& packets) {
  // Dense link ids must narrow to 32 bits (n·2^n < 2^32 ⇔ n ≤ 27).  Every
  // supported workload is far inside this; the check makes the narrowing an
  // error instead of silent truncation if that ever changes.
  HP_CHECK(host.num_directed_edges() <= 0xffffffffull,
           "route plan needs 32-bit link ids (hypercube too large)");
  clear();
  std::size_t total_nodes = 0;
  for (const Packet& p : packets) total_nodes += p.route.size();
  reserve(packets.size(), total_nodes);
  for (const Packet& p : packets) {
    // Same per-packet check order as the legacy setup path: a packet with a
    // broken route AND a negative release reports the route first.  The
    // narrowing cast is harmless when release < 0 — the check right after
    // throws and the half-built plan is discarded.
    add_route(host, p.route, static_cast<std::uint32_t>(p.release));
    HP_CHECK(p.release >= 0, "negative release time");
  }
  if (route_offsets.empty()) route_offsets.push_back(0);
}

RoutePlan RoutePlan::compile(const Hypercube& host,
                             const std::vector<Packet>& packets) {
  RoutePlan plan;
  plan.rebuild(host, packets);
  return plan;
}

StepScratch& step_scratch() {
  thread_local StepScratch scratch;
  return scratch;
}

}  // namespace hyperpath::simcore
