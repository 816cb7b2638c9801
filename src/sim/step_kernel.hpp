// The templated branch-light step-sweep kernel of the store-and-forward
// engine (store_forward.cpp's run_plan — the one step loop, which
// StoreForwardSim, measure_phase_cost and the oracle phase all run).
//
// One sweep serves one worklist of active links: pop one packet per live
// link, account the transmission, compact the worklist in place.  The two
// template booleans select the specialization matrix:
//
//              Traced=false            Traced=true
//   Faulted=false   tight hot loop         + high-water / transmit / stall
//                    (no stale check,        events emitted through `emit`
//                     no event code)
//   Faulted=true    + stale-entry skip     full legacy behaviour
//
// * Traced compiles the event emission in or out.  With it out, the loop
//   body is: depth read, running max, pop, moved append, compaction — no
//   allocation, no virtual call, no event construction.
// * Faulted compiles the stale-worklist check in or out.  Stale entries
//   exist only when the fault-truncation pass ran clear_link on a link that
//   was on a worklist; a fault-free run can never produce one, so skipping
//   the check is bit-identical there.  link_visits stays "entries visited,
//   stale included" in both shapes — without faults every entry is live, so
//   the hoisted `worklist.size()` is the same count the legacy per-entry
//   increment produced.
//
// Arbitration is a functor so each policy instantiates its own loop:
// FifoArbiter is a straight pop_front; FarthestFirstArbiter reads its key
// from the RoutePlan's parallel arrays (route_len[id] - hop[id]) instead of
// chasing Packet::route.
//
// The kernel sees queue numbers only (simcore.hpp: identity or rank
// numbering of the global link ids), never a link's dimension.  Per-dimension
// transmissions are counted after the run from the plan's nodes: a route
// has made exactly hop[r] transmissions, over its first hop[r] hops.
// Events carry queue numbers; the caller's `emit` maps them to global ids.
//
// Prefetch: at Q_16 a sweep entry is a chain of cache misses (worklist →
// the link's queue record → its head packet's successor slot), and no loop
// here vectorizes.  The sweep therefore prefetches the queue record of the
// link kPrefetchDistance entries ahead and, half that distance ahead, the
// successor slot of that link's head packet (its record was fetched
// kPrefetchDistance / 2 iterations earlier).  store_forward.cpp's arrival
// pass does the same for the next-hop queue record of the packet
// kPrefetchDistance entries ahead in `moved`.
//
// Determinism: the sweep visits the worklist in order and emits events in
// deterministic order; everything order-sensitive downstream (trace
// streams, arrivals) is put in canonical order by the caller.  A traced
// run orders its worklist by link first, which makes the sweep's events
// canonical as emitted (obs/trace.hpp's StepTrace then skips the sort).
// Prefetches are hints on in-range indices: they change no visiting order
// and no value, so results and traces are the same with or without them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "sim/simcore.hpp"

namespace hyperpath::simcore {

/// How many entries ahead of use the sweep (in the worklist) and the
/// arrival pass (in `moved`) prefetch.  The Q_16 gains in EXPERIMENTS.md
/// were measured at 16; no other distance was measured.
inline constexpr std::size_t kPrefetchDistance = 16;

/// Outputs of one sweep over one worklist.
struct SweepStats {
  std::uint64_t busy = 0;         // transmissions performed
  std::uint64_t link_visits = 0;  // worklist entries visited (stale incl.)
  std::uint32_t max_queue = 0;    // deepest queue seen this sweep
};

/// FIFO arbitration: queue order (arrival time, ties by packet id).
struct FifoArbiter {
  std::uint32_t operator()(LinkFifoArena& arena, std::uint64_t link) const {
    return arena.pop_front(link);
  }
};

/// Farthest-remaining-distance-first over the SoA plan: the key is the
/// two-array read route_len[id] - hop[id]; ties go to queue order.
struct FarthestFirstArbiter {
  const std::uint32_t* route_len;
  const std::uint32_t* hop;

  std::uint32_t operator()(LinkFifoArena& arena, std::uint64_t link) const {
    return arena.pop_max(link, [this](std::uint32_t id) {
      return route_len[id] - hop[id];
    });
  }
};

/// Sweeps `worklist` once: per live link records queue statistics, emits
/// trace events through `emit` (Traced only), pops one packet via
/// `arbitrate`, appends it to `moved` and compacts the worklist in place so
/// only still-nonempty links survive.  `highwater` (per queue, Traced
/// only) is caller-owned.
template <bool Traced, bool Faulted, typename Arbiter, typename EmitFn>
inline SweepStats step_sweep(LinkFifoArena& arena,
                             std::vector<std::uint32_t>& worklist,
                             std::vector<std::uint32_t>& moved,
                             [[maybe_unused]] int step,
                             [[maybe_unused]] std::uint32_t* highwater,
                             Arbiter&& arbitrate,
                             [[maybe_unused]] EmitFn&& emit) {
  using obs::TraceEvent;
  using obs::TraceEventKind;
  constexpr std::size_t kAhead = kPrefetchDistance;
  constexpr std::size_t kHalf = kPrefetchDistance / 2;
  SweepStats out;
  std::size_t keep = 0;
  const std::size_t count = worklist.size();
  out.link_visits = static_cast<std::uint64_t>(count);
  for (std::size_t r = 0; r < count; ++r) {
    // Compaction writes only slots <= r, so the entries ahead are still
    // the unvisited links.
    if (r + kAhead < count) arena.prefetch_queue(worklist[r + kAhead]);
    if (r + kHalf < count) {
      const std::uint32_t head = arena.head(worklist[r + kHalf]);
      if (head != kNil) arena.prefetch_next(head);
    }
    const std::uint64_t link = worklist[r];
    if constexpr (Faulted) {
      if (arena.empty(link)) continue;  // stale: emptied by the drop pass
    }
    const std::uint32_t depth = arena.depth(link);
    if (depth > out.max_queue) out.max_queue = depth;
    if constexpr (Traced) {
      std::uint32_t& high = highwater[link];
      if (depth > high) {
        high = depth;
        emit(TraceEvent{step, TraceEventKind::kQueueDepth,
                        TraceEvent::kNoPacket, link, depth});
      }
    }
    const std::uint32_t pick = arbitrate(arena, link);
    ++out.busy;
    if constexpr (Traced) {
      emit(TraceEvent{step, TraceEventKind::kTransmit, pick, link, depth});
      if (depth > 1) {
        emit(TraceEvent{step, TraceEventKind::kStall, TraceEvent::kNoPacket,
                        link, std::uint64_t{depth} - 1});
      }
    }
    moved.push_back(pick);
    if (!arena.empty(link)) {
      worklist[keep++] = static_cast<std::uint32_t>(link);
    }
  }
  worklist.resize(keep);
  return out;
}

/// Sorts the packet ids of `moved` ascending — the canonical arrival order.
/// A packet rides at most one queue, so one sweep moves it at most once:
/// the ids are distinct, which turns a one-bit-per-packet mask into an
/// exact counting sort.  Any list of distinct ids works the same way: the
/// traced SoA run also orders its link worklist with it, over a
/// one-bit-per-link mask.  Set each id's bit (random writes, but the mask is
/// only num_packets/8 bytes — L2-resident where the id vector is not), then
/// one ascending word scan re-emits the ids in order and clears the mask
/// behind itself.  `mask` must be all-zero on entry, sized to
/// (num_packets + 63) / 64 words, and is all-zero again on return.
///
/// Dense sweeps (phase traffic moves most packets every step) sort in
/// O(ids + words); sparse sweeps — a recovery wave trickling a handful of
/// retransmitted fragments through a big cube — fall back to comparison
/// sort, because the scan costs the id *range*, not the population.
/// Either path yields the same ascending sequence, so the choice can never
/// perturb results.
inline void sort_moved(std::vector<std::uint32_t>& moved,
                       std::vector<std::uint64_t>& mask) {
  if (moved.size() < mask.size()) {
    std::sort(moved.begin(), moved.end());
    return;
  }
  for (const std::uint32_t id : moved) {
    mask[id >> 6] |= std::uint64_t{1} << (id & 63);
  }
  std::size_t out = 0;
  const std::size_t words = mask.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = mask[w];
    if (bits == 0) continue;
    mask[w] = 0;
    const std::uint32_t base = static_cast<std::uint32_t>(w << 6);
    do {
      moved[out++] =
          base + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
    } while (bits != 0);
  }
}

}  // namespace hyperpath::simcore
