// Unit tests for the flat-arena core (simcore.hpp) plus the active-set
// regression guarantees: per-step sweep cost must track *currently* live
// links, never the set of links that ever carried traffic (the map-based
// layout this replaced re-scanned every historical queue each step).
#include "sim/simcore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "sim/faults.hpp"
#include "sim/step_kernel.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"

namespace hyperpath {
namespace {

using simcore::kNil;
using simcore::LinkBitmap;
using simcore::LinkFifoArena;

TEST(LinkFifoArena, FifoOrderAndWorklistRegistration) {
  LinkFifoArena arena(8, 16);
  std::vector<std::uint32_t> work;
  EXPECT_TRUE(arena.empty(3));

  arena.push_back(3, 10, work);
  arena.push_back(3, 11, work);
  arena.push_back(5, 12, work);
  arena.push_back(3, 13, work);
  // Only empty->nonempty transitions register the link.
  EXPECT_EQ(work, (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(arena.depth(3), 3u);
  EXPECT_EQ(arena.depth(5), 1u);

  std::vector<std::uint32_t> order;
  arena.for_each(3, [&](std::uint32_t id) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{10, 11, 13}));

  EXPECT_EQ(arena.pop_front(3), 10u);
  EXPECT_EQ(arena.pop_front(3), 11u);
  EXPECT_EQ(arena.pop_front(3), 13u);
  EXPECT_TRUE(arena.empty(3));
  // Refilling an emptied link registers it again.
  arena.push_back(3, 14, work);
  EXPECT_EQ(work.back(), 3u);
}

TEST(LinkFifoArena, PopMaxPrefersEarliestOnTies) {
  LinkFifoArena arena(4, 8);
  std::vector<std::uint32_t> work;
  // keys: id 0 -> 2, id 1 -> 5, id 2 -> 5, id 3 -> 1
  const std::vector<int> key = {2, 5, 5, 1};
  for (std::uint32_t id = 0; id < 4; ++id) arena.push_back(1, id, work);
  const auto by_key = [&](std::uint32_t id) { return key[id]; };
  EXPECT_EQ(arena.pop_max(1, by_key), 1u);  // first of the two maxima
  EXPECT_EQ(arena.pop_max(1, by_key), 2u);
  EXPECT_EQ(arena.pop_max(1, by_key), 0u);
  EXPECT_EQ(arena.pop_max(1, by_key), 3u);
  EXPECT_TRUE(arena.empty(1));
  // Head/tail links survive arbitrary middle/end removals.
  arena.push_back(1, 5, work);
  arena.push_back(1, 6, work);
  EXPECT_EQ(arena.pop_max(1, [](std::uint32_t) { return 0; }), 5u);
  EXPECT_EQ(arena.pop_front(1), 6u);
  EXPECT_TRUE(arena.empty(1));
}

TEST(LinkFifoArena, ClearLinkEmptiesInConstantTime) {
  LinkFifoArena arena(4, 8);
  std::vector<std::uint32_t> work;
  for (std::uint32_t id = 0; id < 5; ++id) arena.push_back(2, id, work);
  arena.clear_link(2);
  EXPECT_TRUE(arena.empty(2));
  EXPECT_EQ(arena.depth(2), 0u);
  // The stale worklist entry is the caller's to compact; refilling must
  // re-link a clean queue.
  arena.push_back(2, 7, work);
  EXPECT_EQ(arena.depth(2), 1u);
  EXPECT_EQ(arena.pop_front(2), 7u);
}

TEST(LinkFifoArena, ResetReusesCapacityAndKeepsQueueDiscipline) {
  LinkFifoArena arena(4, 4);
  std::vector<std::uint32_t> work;
  for (std::uint32_t id = 0; id < 4; ++id) arena.push_back(id % 2, id, work);
  // Grow, then shrink: every queue of the new size starts empty, including
  // links that held packets before the reset.
  for (const auto& [links, packets] :
       {std::pair<std::uint64_t, std::size_t>{64, 40}, {3, 8}}) {
    arena.reset(links, packets);
    ASSERT_EQ(arena.num_links(), links);
    for (std::uint64_t link = 0; link < links; ++link) {
      EXPECT_TRUE(arena.empty(link)) << link;
      EXPECT_EQ(arena.depth(link), 0u) << link;
      EXPECT_EQ(arena.head(link), kNil) << link;
    }
    work.clear();
    // FIFO order on link 2, pop_max ties to the earliest-queued on link 1.
    for (const std::uint32_t id : {5u, 2u, 7u}) arena.push_back(2, id, work);
    for (const std::uint32_t id : {0u, 1u, 3u, 4u}) {
      arena.push_back(1, id, work);
    }
    EXPECT_EQ(work, (std::vector<std::uint32_t>{2, 1}));
    EXPECT_EQ(arena.depth(2), 3u);
    EXPECT_EQ(arena.pop_front(2), 5u);
    EXPECT_EQ(arena.pop_front(2), 2u);
    EXPECT_EQ(arena.pop_front(2), 7u);
    EXPECT_TRUE(arena.empty(2));
    const auto key = [](std::uint32_t id) { return id == 1 || id == 3; };
    EXPECT_EQ(arena.pop_max(1, key), 1u);
    EXPECT_EQ(arena.pop_max(1, key), 3u);
    EXPECT_EQ(arena.pop_max(1, key), 0u);
    EXPECT_EQ(arena.pop_max(1, key), 4u);
    EXPECT_TRUE(arena.empty(1));
    EXPECT_EQ(arena.depth(1), 0u);
  }
}

TEST(LinkBitmap, SetTestClear) {
  LinkBitmap bits(130);
  EXPECT_FALSE(bits.test(0));
  EXPECT_FALSE(bits.test(129));
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_FALSE(bits.test(65));
  bits.clear(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_TRUE(bits.test(63));
}

/// A valid hypercube walk of `hops` edges that just zig-zags across
/// dimensions 0 and 1 — long routes without long geodesics.
HostPath zigzag_walk(Node start, int hops) {
  HostPath p{start};
  for (int h = 0; h < hops; ++h) {
    p.push_back(p.back() ^ (h % 2 == 0 ? 1u : 2u));
  }
  return p;
}

TEST(ActiveSetRegression, StepCostIgnoresHistoricallyActiveLinks) {
  // Phase A: a one-step burst that touches `burst` distinct links.  Phase
  // B: a single packet walking a long route through an otherwise idle
  // network.  The worklist accounting must come out at burst + ~1 visit per
  // tail step; the replaced map layout re-scanned all `burst` historical
  // queues every tail step (burst * walk_hops total).
  const int dims = 11;
  const Hypercube q(dims);
  const int burst = 2000;
  const int walk_hops = 400;

  std::vector<Packet> packets;
  for (int i = 0; i < burst; ++i) {
    // Distinct source nodes, one-hop routes: `burst` distinct links, all
    // busy exactly at step 0.
    const Node s = static_cast<Node>(i);
    packets.push_back({{s, q.neighbor(s, 0)}, 0, 0});
  }
  Packet walker;
  walker.route = zigzag_walk(0, walk_hops);
  walker.release = 2;  // enters after the burst has fully drained
  packets.push_back(walker);

  const auto r = StoreForwardSim(dims).run(packets);
  EXPECT_EQ(r.makespan, 2 + walk_hops);
  // Without faults there are no stale entries, so link_visits is exactly
  // sigma_steps(live links): burst links at step 0, the walker's current
  // link afterwards (plus one overlap-free slack bound).
  EXPECT_EQ(r.link_visits,
            static_cast<std::uint64_t>(burst) +
                static_cast<std::uint64_t>(walk_hops));
  // The historical-scaling failure mode would be ~burst * walk_hops.
  EXPECT_LT(r.link_visits,
            static_cast<std::uint64_t>(burst) * walk_hops / 100);
}

TEST(ActiveSetRegression, DroppedQueuesLeaveNoLingeringCost) {
  // Packets pile onto one link, a fault kills it, and a lone walker then
  // runs long past the drop.  The dead link's queue is emptied once; the
  // tail steps must cost one visit each, not re-visit the corpse.
  const int dims = 10;
  const Hypercube q(dims);
  const int pile = 500;
  const int walk_hops = 300;

  std::vector<Packet> packets;
  for (int i = 0; i < pile; ++i) {
    // All share the first hop 0 -> 1 (dimension 0), queueing on one link.
    packets.push_back({{0, q.neighbor(0, 0), q.neighbor(q.neighbor(0, 0), 1)},
                       0, 0});
  }
  Packet walker;
  walker.route = zigzag_walk(static_cast<Node>(q.num_nodes() - 4), walk_hops);
  walker.release = 3;
  packets.push_back(walker);

  FaultSchedule sched(dims);
  sched.link_down(2, 0, q.neighbor(0, 0));

  const auto r = StoreForwardSim(dims).run_with_faults(packets, sched);
  EXPECT_EQ(r.lost, static_cast<std::size_t>(pile) - 2);  // 2 escaped first
  // Visits, exactly: the pile link for steps 0..2 (the step-2 entry is the
  // stale one the drop pass emptied, and it still counts), the two escaped
  // packets' second hops, and one per step of the walker's tail — far
  // below pile * walk_hops.
  EXPECT_EQ(r.sim.link_visits,
            3u + 2u + static_cast<std::uint64_t>(walk_hops));
  EXPECT_EQ(r.sim.makespan, 3 + walk_hops);
}

TEST(RoutePlan, CompileLaysOutHopsNodesAndReleases) {
  const Hypercube q(4);
  std::vector<Packet> packets;
  packets.push_back({ecube_route(q, 0, 11), 0, 0});   // multi-hop
  packets.push_back({ecube_route(q, 5, 5), 3, 0});    // trivial (0 hops)
  packets.push_back({zigzag_walk(2, 6), 1, 0});       // non-geodesic walk
  auto plan = simcore::RoutePlan::compile(q, packets);
  plan.number_links(q);

  ASSERT_EQ(plan.num_routes(), packets.size());
  ASSERT_EQ(plan.route_offsets.size(), packets.size() + 1);
  EXPECT_EQ(plan.route_offsets.front(), 0u);
  std::size_t total_hops = 0;
  for (std::uint32_t r = 0; r < plan.num_routes(); ++r) {
    const HostPath& route = packets[r].route;
    ASSERT_EQ(plan.route_len[r], route.size() - 1) << "route " << r;
    EXPECT_EQ(plan.release[r], static_cast<std::uint32_t>(packets[r].release));
    EXPECT_EQ(plan.route_offsets[r + 1] - plan.route_offsets[r],
              plan.route_len[r]);
    // The node span shares the hop offsets (nodes start at offset + r).
    const auto nodes = plan.nodes(r);
    ASSERT_EQ(nodes.size(), route.size());
    EXPECT_TRUE(std::equal(nodes.begin(), nodes.end(), route.begin()));
    // Each hop's queue maps back to exactly Hypercube::edge_id — the
    // kernel never recomputes it, so numbering must get every one right.
    for (std::uint32_t h = 0; h < plan.route_len[r]; ++h) {
      const std::uint64_t link = q.edge_id(route[h], route[h + 1]);
      const std::uint32_t queue = plan.link_of_hop[plan.route_offsets[r] + h];
      EXPECT_EQ(plan.link_of_queue(queue), link)
          << "route " << r << " hop " << h;
      EXPECT_EQ(plan.queue_of_link(link), queue);
    }
    total_hops += plan.route_len[r];
  }
  EXPECT_EQ(plan.link_of_hop.size(), total_hops);
  EXPECT_EQ(plan.route_offsets.back(), total_hops);
}

TEST(RoutePlan, NumberLinksPicksIdentityOrRanksFromTheTraffic) {
  const Hypercube q(3);  // 24 directed links
  // Three hops on a 24-link host: ranks among the distinct global ids.
  auto sparse = simcore::RoutePlan::compile(q, {{ecube_route(q, 0, 7), 0, 0}});
  sparse.number_links(q);
  const std::vector<std::uint64_t> ids = {
      q.edge_id(Node{0}, Node{1}), q.edge_id(Node{1}, Node{3}),
      q.edge_id(Node{3}, Node{7})};
  EXPECT_EQ(sparse.num_queues(), 3u);
  EXPECT_EQ(sparse.queue_links, ids);
  EXPECT_EQ(sparse.link_of_hop, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(sparse.queue_of_link(q.edge_id(Node{1}, Node{0})),
            simcore::kNoQueue);

  // One packet per directed link, twice over: 48 hops on 24 links, so a
  // link's queue is its global id.
  std::vector<Packet> dense;
  for (int round = 0; round < 2; ++round) {
    for (Node v = 0; v < q.num_nodes(); ++v) {
      for (Dim d = 0; d < q.dims(); ++d) {
        dense.push_back({{v, q.neighbor(v, d)}, 0, 0});
      }
    }
  }
  auto full = simcore::RoutePlan::compile(q, dense);
  full.number_links(q);
  EXPECT_EQ(full.num_queues(), q.num_directed_edges());
  EXPECT_TRUE(full.queue_links.empty());
  for (std::uint32_t r = 0; r < full.num_routes(); ++r) {
    EXPECT_EQ(full.link_of_hop[r], q.edge_id(dense[r].route[0],
                                             dense[r].route[1]));
  }
  EXPECT_EQ(full.queue_of_link(5), 5u);
}

TEST(RoutePlan, EmptyPacketSetCompilesToEmptyPlan) {
  const auto plan = simcore::RoutePlan::compile(Hypercube(3), {});
  EXPECT_EQ(plan.num_routes(), 0u);
  ASSERT_EQ(plan.route_offsets.size(), 1u);
  EXPECT_EQ(plan.route_offsets.front(), 0u);
}

TEST(RoutePlan, ReportsInvalidRouteBeforeNegativeRelease) {
  const Hypercube q(3);
  // Nodes 0 and 3 differ in two bits: not a hypercube edge.  The broken
  // route must win over the negative release — the legacy setup paths
  // checked in that order and callers pin the message.
  Packet bad;
  bad.route = {Node{0}, Node{3}};
  bad.release = -1;
  try {
    simcore::RoutePlan::compile(q, {bad});
    FAIL() << "invalid route accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("packet route invalid"),
              std::string::npos)
        << e.what();
  }
  Packet late;
  late.route = ecube_route(q, 0, 1);
  late.release = -1;
  try {
    simcore::RoutePlan::compile(q, {late});
    FAIL() << "negative release accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("negative release time"),
              std::string::npos)
        << e.what();
  }
}

TEST(RoutePlan, RebuildReusesCapacityAndMatchesFreshCompile) {
  const Hypercube q(5);
  Rng rng(41);
  std::vector<Packet> big;
  for (int i = 0; i < 200; ++i) {
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    big.push_back({ecube_route(q, s, d), static_cast<int>(rng.below(4)), 0});
  }
  std::vector<Packet> small(big.begin(), big.begin() + 7);

  simcore::RoutePlan plan;
  plan.rebuild(q, big);
  const std::size_t nodes_cap = plan.route_nodes.capacity();
  const std::size_t hops_cap = plan.link_of_hop.capacity();
  const std::size_t offsets_cap = plan.route_offsets.capacity();

  // Rebuilding with a smaller set must not shed capacity (the StepScratch
  // reuse contract: recovery waves and Monte-Carlo trials rebuild
  // thousands of times on one thread without reallocating).
  plan.rebuild(q, small);
  EXPECT_EQ(plan.route_nodes.capacity(), nodes_cap);
  EXPECT_EQ(plan.link_of_hop.capacity(), hops_cap);
  EXPECT_EQ(plan.route_offsets.capacity(), offsets_cap);

  const auto fresh = simcore::RoutePlan::compile(q, small);
  EXPECT_EQ(plan.route_nodes, fresh.route_nodes);
  EXPECT_EQ(plan.route_offsets, fresh.route_offsets);
  EXPECT_EQ(plan.link_of_hop, fresh.link_of_hop);
  EXPECT_EQ(plan.route_len, fresh.route_len);
  EXPECT_EQ(plan.release, fresh.release);
}

TEST(StepKernel, SortMovedMatchesStdSortOnBothPathsAndClearsMask) {
  Rng rng(0x5027);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint32_t universe = 64 + static_cast<std::uint32_t>(
                                            rng.below(5000));
    const std::size_t words = (universe + 63) / 64;
    // Even trials stay under one id per mask word (the std::sort fallback
    // for sparse recovery waves); odd trials force the dense counting path.
    const std::size_t count =
        trial % 2 == 0 ? rng.below(words)
                       : words + rng.below(universe - words);
    std::vector<std::uint32_t> pool(universe);
    std::iota(pool.begin(), pool.end(), 0u);
    for (std::size_t i = 0; i < count; ++i) {
      std::swap(pool[i], pool[i + rng.below(universe - i)]);
    }
    std::vector<std::uint32_t> moved(pool.begin(), pool.begin() + count);
    std::vector<std::uint32_t> expected = moved;
    std::sort(expected.begin(), expected.end());

    std::vector<std::uint64_t> mask(words, 0);
    simcore::sort_moved(moved, mask);
    EXPECT_EQ(moved, expected) << "trial " << trial;
    // The mask must come back all-zero — sort_moved's own precondition for
    // the next sweep.
    for (const std::uint64_t w : mask) ASSERT_EQ(w, 0u) << "trial " << trial;
  }
}

TEST(ActiveSetProperty, ClearLinkStaleEntriesCompactInExactlyOneSweep) {
  // Randomized model of the simulators' worklist discipline: each step
  // clears some nonempty links (the fault-truncation pass), sweeps with
  // in-place compaction, then enqueues fresh packets.  The invariants under
  // test: every stale entry is visited exactly once (the sweep that drops
  // it), a stale entry only ever comes from clear_link, and after
  // compaction the worklist is exactly the set of nonempty links with no
  // duplicates — the precondition push_back's registration relies on.
  Rng rng(20260808);
  constexpr std::uint64_t kLinks = 48;
  constexpr std::uint32_t kPackets = 192;
  for (int trial = 0; trial < 20; ++trial) {
    simcore::LinkFifoArena arena(kLinks, kPackets);
    std::vector<std::uint32_t> worklist;
    std::vector<std::uint32_t> free_ids(kPackets);
    std::iota(free_ids.begin(), free_ids.end(), 0u);

    const auto enqueue_some = [&] {
      const int count = static_cast<int>(rng.below(40));
      for (int i = 0; i < count && !free_ids.empty(); ++i) {
        const std::size_t pick = rng.below(free_ids.size());
        const std::uint32_t id = free_ids[pick];
        free_ids[pick] = free_ids.back();
        free_ids.pop_back();
        arena.push_back(rng.below(kLinks), id, worklist);
      }
    };
    enqueue_some();

    for (int step = 0; step < 30; ++step) {
      // Fault truncation: each cleared nonempty link strands exactly one
      // worklist entry (nonempty links sit on the worklist exactly once).
      std::set<std::uint32_t> cleared;
      const int clears = static_cast<int>(rng.below(6));
      for (int i = 0; i < clears; ++i) {
        const std::uint64_t link = rng.below(kLinks);
        if (arena.empty(link)) continue;
        arena.for_each(link,
                       [&](std::uint32_t id) { free_ids.push_back(id); });
        arena.clear_link(link);
        cleared.insert(static_cast<std::uint32_t>(link));
      }

      // The sweep, as the kernels run it: serve one packet per live link,
      // compact in place, drop drained and stale entries.
      std::set<std::uint32_t> stale_seen;
      std::size_t out = 0;
      for (std::size_t i = 0; i < worklist.size(); ++i) {
        const std::uint32_t link = worklist[i];
        if (arena.empty(link)) {
          EXPECT_TRUE(cleared.count(link))
              << "stale entry for link " << link << " without a clear_link";
          EXPECT_TRUE(stale_seen.insert(link).second)
              << "stale link " << link << " visited twice in one sweep";
          continue;
        }
        free_ids.push_back(arena.pop_front(link));
        if (!arena.empty(link)) worklist[out++] = link;
      }
      worklist.resize(out);
      // Every clear produced exactly one stale visit — no more, no fewer.
      EXPECT_EQ(stale_seen, cleared) << "step " << step;

      // Post-compaction the worklist is precisely the nonempty links.
      const std::set<std::uint32_t> live(worklist.begin(), worklist.end());
      EXPECT_EQ(live.size(), worklist.size()) << "duplicate worklist entry";
      for (std::uint64_t link = 0; link < kLinks; ++link) {
        EXPECT_EQ(!arena.empty(link),
                  live.count(static_cast<std::uint32_t>(link)) == 1u)
            << "link " << link << " at step " << step;
      }

      enqueue_some();
    }
  }
}

}  // namespace
}  // namespace hyperpath
