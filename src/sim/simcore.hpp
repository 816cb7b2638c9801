// Flat-arena simulator core shared by the store-and-forward engine and the
// wormhole simulator.
//
// Link ids.  Every directed link of Q_n has one global id, tail·n + dim
// (Hypercube::edge_id); traces, PacketFate::link and fault schedules speak
// only global ids.  Per-link simulator state is indexed by a *queue*
// number instead, chosen per run from the traffic by
// RoutePlan::number_links — the one place that picks a numbering:
//
//   * identity — when the host has no more directed links than the plan
//     has hops, a link's queue is its global id (arrays the host's size
//     cost no more than the plan already does, and no sort runs);
//   * ranks — otherwise a link's queue is its rank among the plan's
//     distinct global ids (renumber_links' radix), so state is sized by
//     the links the traffic touches, not by the host: a handful of
//     packets on Q_24 or Q_30 allocates a handful of queues.
//
// Both numberings preserve order, so worklist order, arbitration, the
// canonical trace order and the fault-drop order are the same under
// either; emitters map a queue back to its global id.
//
//   * LinkFifoArena — intrusive per-queue packet FIFOs.  A packet waits in
//     at most one queue at a time, so a single `next[packet]` array plus
//     one `{head, tail, depth}` record per queue hold every queue of the
//     run with zero per-enqueue allocation.  The three fields share one
//     12-byte record because every push and pop touches all of them: one
//     cache line per queue operation, not three.
//
//   * Active-set scheduling — a step visits only queues that currently hold
//     packets.  Enqueueing into an empty queue appends it to a caller owned
//     worklist; the sweep compacts the worklist in place, dropping queues
//     that drained.  Per-step cost is O(live queues).
//
//   * LinkBitmap — one bit per queue; the wormhole simulator's held-route
//     set.
//
//   * RoutePlan — the structure-of-arrays route compilation the step
//     kernel runs on.  Routes stream in node by node through one walk
//     validator (begin_route / push_node / end_route); a hop's global link
//     id is a function of its two stored nodes.  number_links then writes
//     each hop's queue into link_of_hop.  The step loop never touches a
//     Packet: the farthest-first key is route_len[id] - hop[id], and an
//     enqueue is the single load link_of_hop[route_offsets[id] + hop[id]].
//
//   * StepScratch — the run-scoped state of the step loop (arena, worklist,
//     hop counters, release cursor).  StoreForwardSim uses a thread-local
//     one: the Monte-Carlo campaign engine runs thousands of short trials
//     per thread, and the scratch keeps its capacity across them.  The
//     oracle phase runs on a call-local one, so its plan-sized state is
//     freed on return.
//
// Memory: one 12-byte queue record per queue and one 32-bit word per
// packet — at most 12 bytes per hop of the plan under either numbering
// (identity is chosen only when host links <= hops).  Records are not
// padded to 16 bytes: that would cost a third more memory for the 2 in 16
// records that straddle a cache line.
//
// Width discipline: queue depths are uniformly std::uint32_t inside the
// core (a queue can never hold more packets than the 32-bit packet ids that
// exist); widening to std::size_t/std::uint64_t happens exactly once, at
// the SimResult / telemetry boundary.  Queue numbers fit 32 bits because
// there are never more queues than hops.  Debug builds assert the (absurd)
// depth-overflow case instead of silently wrapping.
//
// Determinism: the arena itself is strictly FIFO-ordered and the worklist
// preserves insertion order, so a sweep visits queues in a deterministic
// order for a fixed workload.  Nothing order-dependent escapes anyway —
// per-step trace events are canonically sorted by obs::StepTrace and the
// simulators sort arrivals by packet id — which is what keeps the flat core
// bit-identical to the retained map-based reference implementation
// (reference_sim.hpp; tests/property/simcore_equiv_test.cpp enforces it).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/hypercube.hpp"

namespace hyperpath {
struct Packet;
}

namespace hyperpath::simcore {

/// Sentinel for "no packet" in intrusive links and head/tail slots.
inline constexpr std::uint32_t kNil = 0xffffffffu;

/// Intrusive per-link packet FIFOs in one flat arena, indexed by queue
/// number (RoutePlan::number_links).  Packet ids must be < num_packets;
/// each packet may sit in at most one queue at a time (true of every
/// store-and-forward model here: a packet waits on exactly its next link).
class LinkFifoArena {
 public:
  LinkFifoArena(std::uint64_t num_links, std::size_t num_packets);

  /// Re-dimensions and empties the arena without releasing capacity — the
  /// run-scoped scratch reuse path (StepScratch) for workloads that run
  /// thousands of short simulations (recovery waves, Monte-Carlo trials).
  void reset(std::uint64_t num_links, std::size_t num_packets);

  bool empty(std::uint64_t link) const { return queue_[link].head == kNil; }
  std::uint32_t depth(std::uint64_t link) const { return queue_[link].depth; }

  /// The oldest waiting packet of `link` (kNil when empty) — lets the
  /// sweep prefetch that packet's intrusive successor slot ahead of use.
  std::uint32_t head(std::uint64_t link) const { return queue_[link].head; }

  /// Read-prefetches `link`'s queue record (one cache line).
  void prefetch_queue(std::uint64_t link) const {
    __builtin_prefetch(&queue_[link]);
  }
  /// Read-prefetches packet `id`'s intrusive successor slot.
  void prefetch_next(std::uint32_t id) const {
    __builtin_prefetch(&next_[id]);
  }

  /// Appends packet `id` to `link`'s queue.  When the queue was empty the
  /// link is pushed onto `worklist` — the caller-owned active set of 32-bit
  /// queue numbers (a plan never has more queues than hops).  The caller
  /// must keep the invariant that an empty link is never already on a live
  /// worklist; the engine gets this for free because stale entries (queues
  /// emptied by the fault-truncation pass) are compacted away by the same
  /// step's sweep, before any enqueue runs.
  void push_back(std::uint64_t link, std::uint32_t id,
                 std::vector<std::uint32_t>& worklist) {
    LinkQueue& q = queue_[link];
    // A queue deeper than the 32-bit id space is impossible (each packet
    // waits in at most one queue); guard the wrap anyway in debug builds.
    assert(q.depth != 0xffffffffu && "link queue depth overflow");
    next_[id] = kNil;
    if (q.head == kNil) {
      q.head = id;
      worklist.push_back(static_cast<std::uint32_t>(link));
    } else {
      next_[q.tail] = id;
    }
    q.tail = id;
    ++q.depth;
  }

  /// Removes and returns the oldest waiting packet.  Requires !empty(link).
  std::uint32_t pop_front(std::uint64_t link) {
    LinkQueue& q = queue_[link];
    const std::uint32_t id = q.head;
    q.head = next_[id];
    if (q.head == kNil) q.tail = kNil;
    --q.depth;
    return id;
  }

  /// Removes and returns the waiting packet maximizing key(id); ties go to
  /// the earliest-queued packet (the farthest-first arbitration rule).
  /// O(depth).  Requires !empty(link).
  template <typename Key>
  std::uint32_t pop_max(std::uint64_t link, Key&& key) {
    LinkQueue& q = queue_[link];
    std::uint32_t best = q.head;
    std::uint32_t best_prev = kNil;
    auto best_key = key(best);
    for (std::uint32_t prev = best, it = next_[best]; it != kNil;
         prev = it, it = next_[it]) {
      const auto k = key(it);
      if (k > best_key) {
        best = it;
        best_prev = prev;
        best_key = k;
      }
    }
    if (best_prev == kNil) {
      q.head = next_[best];
    } else {
      next_[best_prev] = next_[best];
    }
    if (q.tail == best) q.tail = best_prev;
    --q.depth;
    return best;
  }

  /// Visits the queue front-to-back (the canonical drop order of the
  /// fault-truncation pass).
  template <typename Fn>
  void for_each(std::uint64_t link, Fn&& fn) const {
    for (std::uint32_t it = queue_[link].head; it != kNil; it = next_[it]) {
      fn(it);
    }
  }

  /// Empties `link`'s queue in O(1).  Any worklist entry for the link goes
  /// stale and is dropped by the next sweep's compaction.
  void clear_link(std::uint64_t link) { queue_[link] = LinkQueue{}; }

  std::uint64_t num_links() const {
    return static_cast<std::uint64_t>(queue_.size());
  }

 private:
  /// One link's queue: everything a push or pop of that link touches.
  struct LinkQueue {
    std::uint32_t head = kNil;  // kNil = empty
    std::uint32_t tail = kNil;  // kNil = empty
    std::uint32_t depth = 0;
  };

  std::vector<LinkQueue> queue_;      // per link
  std::vector<std::uint32_t> next_;   // per packet; intrusive successor
};

/// One bit per link queue (the wormhole simulator's held-route set).
class LinkBitmap {
 public:
  explicit LinkBitmap(std::uint64_t num_links)
      : words_((num_links + 63) / 64, 0) {}

  bool test(std::uint64_t link) const {
    return (words_[link >> 6] >> (link & 63)) & 1u;
  }
  void set(std::uint64_t link) { words_[link >> 6] |= std::uint64_t{1} << (link & 63); }
  void clear(std::uint64_t link) {
    words_[link >> 6] &= ~(std::uint64_t{1} << (link & 63));
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Sentinel for "no queue": RoutePlan::queue_of_link on a link no route uses.
inline constexpr std::uint64_t kNoQueue = ~std::uint64_t{0};

/// Result of renumber_links.
struct CompactLinks {
  /// Per hop: the rank of its global id among the distinct ids — exactly
  /// lower_bound(sorted_unique(glinks), glinks[h]).
  std::vector<std::uint32_t> link_of_hop;
  /// The distinct global ids, ascending: links[rank] is rank's global id.
  std::vector<std::uint64_t> links;
};

/// Ranks a hop sequence of 64-bit global link ids (`glinks`, consumed: its
/// buffer holds the sort keys) with one stable LSD radix sort of
/// (global id << hop_bits | hop) keys over the global-id bits only, then
/// one scan that assigns ranks.  Throws if a key would need more than 64
/// bits or a rank more than 32.
CompactLinks renumber_links(std::vector<std::uint64_t> glinks);

/// Structure-of-arrays compilation of a route set, built once per run.
///
/// Route r's node sequence is nodes(r); its hops are
///     [route_offsets[r], route_offsets[r] + route_len[r])
/// and route_len[r] and release[r] are parallel 32-bit arrays.  Hop h of a
/// route runs over global link tail·n + dim of its two nodes; after
/// number_links, link_of_hop[hop] is that link's queue.  The step kernel
/// reads only these flat arrays — it never touches a Packet and never
/// recomputes a link id.
class RoutePlan {
 public:
  /// Compiles (and validates) a packet set's routes.  Throws exactly the
  /// validation errors of the simulators' legacy setup path: "packet route
  /// invalid" and "negative release time".  Links are not yet numbered.
  static RoutePlan compile(const Hypercube& host,
                           const std::vector<Packet>& packets);

  /// In-place compile: clears and refills this plan, keeping vector
  /// capacity — the StepScratch reuse path.  Same validation as compile().
  void rebuild(const Hypercube& host, const std::vector<Packet>& packets);

  /// Empties the plan, keeping capacity (scratch reuse across runs).
  void clear();
  void reserve(std::size_t routes, std::size_t total_nodes);

  /// Appends one route: begin_route, its nodes, end_route.  `invalid_msg`
  /// is the HP_CHECK text raised on a malformed route — callers with their
  /// own vocabulary (the wormhole simulator) pass theirs so error contracts
  /// survive unchanged.
  void add_route(const Hypercube& host, const HostPath& route,
                 std::uint32_t release_step,
                 const char* invalid_msg = "packet route invalid");

  /// Streaming construction — the one way routes enter a plan:
  /// begin_route(), push_node() per node, then end_route(), the walk
  /// validator (at least one node, every node inside the host, every step
  /// one bit flip).  PathOracle consumers stream with no HostPath
  /// temporary.
  void begin_route(std::uint32_t release_step);
  void push_node(Node v) { route_nodes.push_back(v); }
  void end_route(const Hypercube& host,
                 const char* invalid_msg = "packet route invalid");

  /// Appends a copy of route r (its nodes and release step) as a new
  /// route, its walk validated again.  Phase packets past the bundle width
  /// replay a route already compiled instead of regenerating it.
  void replay_route(const Hypercube& host, std::uint32_t r,
                    const char* invalid_msg);

  /// Numbers the plan's link queues from its traffic and fills
  /// link_of_hop: the one numbering rule.  If the host has no more
  /// directed links than the plan has hops, a link's queue is its global
  /// id; otherwise it is the link's rank among the plan's distinct global
  /// ids (renumber_links).  Both preserve the order of global ids.
  void number_links(const Hypercube& host);

  std::uint32_t num_routes() const {
    return static_cast<std::uint32_t>(route_len.size());
  }

  /// Queues the numbered plan allocates: the host's directed links under
  /// identity numbering, the distinct links the routes use under ranks.
  std::uint64_t num_queues() const { return num_queues_; }

  /// Global link id of queue q.
  std::uint64_t link_of_queue(std::uint64_t q) const {
    return queue_links.empty() ? q : queue_links[q];
  }

  /// Queue of global link `link`, or kNoQueue when no route uses it (a
  /// binary search under ranks).
  std::uint64_t queue_of_link(std::uint64_t link) const;

  /// Node sequence of route r (route_len[r] + 1 nodes).  Nodes share the
  /// hop offsets: route r's nodes start at route_offsets[r] + r, because
  /// every preceding route stores exactly one more node than hops.
  std::span<const Node> nodes(std::uint32_t r) const {
    return {route_nodes.data() + route_offsets[r] + r, route_len[r] + 1u};
  }

  std::vector<Node> route_nodes;            // concatenated node sequences
  std::vector<std::uint32_t> route_offsets; // per route into the hops;
                                            // size num_routes() + 1
  std::vector<std::uint32_t> link_of_hop;   // queue per hop (number_links)
  std::vector<std::uint32_t> route_len;     // hops per route (nodes - 1)
  std::vector<std::uint32_t> release;       // earliest step a route may move
  /// Global id of each queue under rank numbering (ascending); empty under
  /// identity numbering.
  std::vector<std::uint64_t> queue_links;

 private:
  std::uint64_t num_queues_ = 0;
  std::size_t stream_start_ = 0;      // route_nodes index of the open route
  std::uint32_t stream_release_ = 0;  // release step of the open route
};

/// Run-scoped state of the step loop (store_forward.hpp's run_plan).  The
/// hot setup path used to grow fresh vectors (moved, release lists, tracing
/// high-water marks) on every run — the Monte-Carlo campaign engine and the
/// recovery wave loop multiply that by thousands of short runs on the same
/// pool thread, so StoreForwardSim runs on the thread's step_scratch().
/// Everything here is sized by run_plan and keeps its capacity across runs;
/// correctness never depends on leftover contents.
struct StepScratch {
  RoutePlan plan;
  LinkFifoArena arena{0, 0};
  std::vector<std::uint32_t> active;  // active-link worklist
  std::vector<std::uint32_t> moved;   // packets that advanced this step
  /// One bit per packet, all-zero between sweeps: the counting-sort mask
  /// step_kernel.hpp's sort_moved uses to order dense arrival batches.
  std::vector<std::uint64_t> moved_mask;
  std::vector<std::uint32_t> hop;     // per-route current hop index
  /// Deferred releases as (release step, route id), sorted ascending — the
  /// SoA replacement for the per-step bucket lists (release_at) of the
  /// legacy path; a cursor walks it as steps advance.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending;
  std::vector<std::uint32_t> highwater;  // per queue, tracing runs only
  /// One bit per queue, all-zero between sorts: orders the worklist of a
  /// traced run before each sweep (tracing runs only).
  std::vector<std::uint64_t> link_mask;
};

/// The calling thread's scratch arena.  Thread-local, so concurrent
/// Monte-Carlo trials each reuse their own; a simulator run owns it only
/// for the duration of one run (simulators never nest runs on one thread).
StepScratch& step_scratch();

}  // namespace hyperpath::simcore
