#include "sim/simcore.hpp"

#include <algorithm>
#include <bit>

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
  queue_links.clear();
  num_queues_ = 0;
}

void RoutePlan::reserve(std::size_t routes, std::size_t total_nodes) {
  route_nodes.reserve(total_nodes);
  route_offsets.reserve(routes + 1);
  route_len.reserve(routes);
  release.reserve(routes);
}

void RoutePlan::add_route(const Hypercube& host, const HostPath& route,
                          std::uint32_t release_step,
                          const char* invalid_msg) {
  begin_route(release_step);
  route_nodes.insert(route_nodes.end(), route.begin(), route.end());
  end_route(host, invalid_msg);
}

void RoutePlan::begin_route(std::uint32_t release_step) {
  if (route_offsets.empty()) route_offsets.push_back(0);
  stream_start_ = route_nodes.size();
  stream_release_ = release_step;
}

void RoutePlan::end_route(const Hypercube& host, const char* invalid_msg) {
  const std::size_t len = route_nodes.size() - stream_start_;
  HP_CHECK(len >= 1, invalid_msg);
  const Node* nodes = route_nodes.data() + stream_start_;
  HP_CHECK(host.contains(nodes[0]), invalid_msg);
  for (std::size_t h = 0; h + 1 < len; ++h) {
    HP_CHECK(host.contains(nodes[h + 1]) &&
                 std::popcount(nodes[h] ^ nodes[h + 1]) == 1,
             invalid_msg);
  }
  const std::uint64_t hops_total =
      static_cast<std::uint64_t>(route_offsets.back()) + (len - 1);
  HP_CHECK(hops_total <= 0xffffffffull, "route plan hop count overflow");
  route_offsets.push_back(static_cast<std::uint32_t>(hops_total));
  route_len.push_back(static_cast<std::uint32_t>(len - 1));
  release.push_back(stream_release_);
}

void RoutePlan::replay_route(const Hypercube& host, std::uint32_t r,
                             const char* invalid_msg) {
  // By index: route_nodes may reallocate while it grows.
  const std::size_t first = std::size_t{route_offsets[r]} + r;
  const std::size_t count = std::size_t{route_len[r]} + 1;
  begin_route(release[r]);
  for (std::size_t i = first; i < first + count; ++i) {
    route_nodes.push_back(route_nodes[i]);
  }
  end_route(host, invalid_msg);
}

void RoutePlan::number_links(const Hypercube& host) {
  if (route_offsets.empty()) route_offsets.push_back(0);
  const std::uint64_t hops = route_offsets.back();
  const std::uint64_t dims = static_cast<std::uint64_t>(host.dims());
  // Calls put(hop, global link id) for every hop of every route.
  const auto for_each_hop = [&](auto&& put) {
    for (std::uint32_t r = 0; r < num_routes(); ++r) {
      const std::uint32_t off = route_offsets[r];
      const Node* v = route_nodes.data() + off + r;
      for (std::uint32_t h = 0; h < route_len[r]; ++h) {
        put(off + h, v[h] * dims + std::countr_zero(v[h] ^ v[h + 1]));
      }
    }
  };
  queue_links.clear();
  if (host.num_directed_edges() <= hops) {
    // Identity: ids < host links <= hops < 2^32, so they narrow safely.
    link_of_hop.resize(hops);
    for_each_hop([&](std::uint32_t h, std::uint64_t g) {
      link_of_hop[h] = static_cast<std::uint32_t>(g);
    });
    num_queues_ = host.num_directed_edges();
    return;
  }
  std::vector<std::uint64_t> glinks(hops);
  for_each_hop([&](std::uint32_t h, std::uint64_t g) { glinks[h] = g; });
  CompactLinks ranks = renumber_links(std::move(glinks));
  link_of_hop = std::move(ranks.link_of_hop);
  queue_links = std::move(ranks.links);
  num_queues_ = queue_links.size();
}

std::uint64_t RoutePlan::queue_of_link(std::uint64_t link) const {
  if (queue_links.empty()) return link < num_queues_ ? link : kNoQueue;
  const auto it =
      std::lower_bound(queue_links.begin(), queue_links.end(), link);
  return it != queue_links.end() && *it == link
             ? static_cast<std::uint64_t>(it - queue_links.begin())
             : kNoQueue;
}

void RoutePlan::rebuild(const Hypercube& host,
                        const std::vector<Packet>& packets) {
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

CompactLinks renumber_links(std::vector<std::uint64_t> glinks) {
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

  // Equal global ids are now adjacent and ascending, so a link's rank is
  // the number of distinct ids before it.  The distinct ids compact into
  // the front of the key buffer as the scan passes them (write index <=
  // read index).
  const std::uint64_t hop_mask = (std::uint64_t{1} << hop_bits) - 1;
  out.link_of_hop.resize(n);
  std::uint64_t prev = glinks[0] >> hop_bits;
  std::uint32_t id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = glinks[i];
    const std::uint64_t g = key >> hop_bits;
    if (g != prev) {
      glinks[id] = prev;
      prev = g;
      ++id;
    }
    out.link_of_hop[key & hop_mask] = id;
  }
  glinks[id] = prev;
  glinks.resize(std::size_t{id} + 1);
  glinks.shrink_to_fit();
  out.links = std::move(glinks);
  return out;
}

StepScratch& step_scratch() {
  thread_local StepScratch scratch;
  return scratch;
}

}  // namespace hyperpath::simcore
