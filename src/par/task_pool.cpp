#include "par/task_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "base/error.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/run_metadata.hpp"
#include "obs/telemetry.hpp"

namespace hyperpath::par {

namespace {

/// Worker index of the region currently executing on this thread, -1 when
/// outside any region.  Used to route reentrant run_chunks calls inline.
thread_local int tls_region_worker = -1;

thread_local TaskPool* tls_pool_override = nullptr;

std::uint64_t next_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Deque
// ---------------------------------------------------------------------------

void TaskPool::Deque::reset(std::size_t capacity) {
  const std::uint64_t cap = next_pow2(capacity == 0 ? 1 : capacity);
  if (buf.size() < cap) buf.assign(cap, 0);
  mask = buf.size() - 1;
  top.store(0, std::memory_order_relaxed);
  bottom.store(0, std::memory_order_relaxed);
}

void TaskPool::Deque::fill_push(std::uint64_t v) {
  const std::int64_t b = bottom.load(std::memory_order_relaxed);
  buf[static_cast<std::uint64_t>(b) & mask] = v;
  bottom.store(b + 1, std::memory_order_relaxed);
}

bool TaskPool::Deque::pop(std::uint64_t* out) {
  const std::int64_t b = bottom.load(std::memory_order_relaxed) - 1;
  bottom.store(b, std::memory_order_seq_cst);
  std::int64_t t = top.load(std::memory_order_seq_cst);
  if (t <= b) {
    *out = buf[static_cast<std::uint64_t>(b) & mask];
    if (t == b) {
      // Last element: race the thieves for it.
      const bool won = top.compare_exchange_strong(t, t + 1,
                                                   std::memory_order_seq_cst,
                                                   std::memory_order_seq_cst);
      bottom.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }
  bottom.store(b + 1, std::memory_order_relaxed);
  return false;
}

bool TaskPool::Deque::steal(std::uint64_t* out) {
  std::int64_t t = top.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom.load(std::memory_order_seq_cst);
  if (t >= b) return false;
  const std::uint64_t v = buf[static_cast<std::uint64_t>(t) & mask];
  if (!top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                   std::memory_order_seq_cst)) {
    return false;  // lost to the owner or another thief; caller retries
  }
  *out = v;
  return true;
}

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

int TaskPool::resolve_threads(int requested) {
  int n = requested;
  if (n <= 0) {
    if (const char* env = std::getenv("HYPERPATH_THREADS")) {
      n = std::atoi(env);
    }
  }
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (n <= 0) n = 1;
  return n < kMaxThreads ? n : kMaxThreads;
}

TaskPool::TaskPool(int threads) : threads_(resolve_threads(threads)) {
  parts_ = std::make_unique<Participant[]>(threads_);
  workers_.reserve(threads_ - 1);
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
    ++round_;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void TaskPool::worker_loop(int index) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return round_ != seen; });
      seen = round_;
      if (stop_) return;
    }
    participate(index);
    {
      std::scoped_lock lock(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void TaskPool::execute(std::uint64_t chunk, int worker) {
  try {
    (*body_)(static_cast<std::size_t>(chunk), worker);
  } catch (...) {
    Participant& me = parts_[worker];
    if (chunk < me.err_chunk) {
      me.err_chunk = static_cast<std::size_t>(chunk);
      me.err = std::current_exception();
    }
  }
  remaining_.fetch_sub(1, std::memory_order_acq_rel);
}

void TaskPool::participate(int index) {
  const int prev_worker = tls_region_worker;
  tls_region_worker = index;
  const auto t0 = std::chrono::steady_clock::now();
  Participant& me = parts_[index];
  std::uint64_t chunk;
  while (true) {
    if (me.deque.pop(&chunk)) {
      execute(chunk, index);
      continue;
    }
    bool stole = false;
    for (int i = 1; i < threads_; ++i) {
      if (parts_[(index + i) % threads_].deque.steal(&chunk)) {
        ++me.steals;
        execute(chunk, index);
        stole = true;
        break;
      }
    }
    if (stole) continue;
    // Nothing to pop, nothing to steal: the remaining chunks (if any) are
    // executing on other participants right now.  Wait for the last one.
    if (remaining_.load(std::memory_order_acquire) == 0) break;
    std::this_thread::yield();
  }
  me.busy_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  tls_region_worker = prev_worker;
}

void TaskPool::run_chunks(std::size_t num_chunks,
                          const std::function<void(std::size_t, int)>& body) {
  if (num_chunks == 0) return;

  // Serial collapse: one participant, one chunk, or a reentrant call from
  // inside a running region (per-worker scratch is per call, so worker 0 is
  // always a safe index inline).
  if (threads_ == 1 || num_chunks == 1 || tls_region_worker >= 0) {
    for (std::size_t c = 0; c < num_chunks; ++c) body(c, 0);
    stat_tasks_.fetch_add(num_chunks, std::memory_order_relaxed);
    stat_regions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  HP_PROFILE_SPAN("par/region");

  // Seed every participant's deque with a contiguous block of chunks while
  // all workers are parked: blocked distribution keeps neighboring chunks
  // (and so neighboring edges / cache lines) on one thread until stealing
  // rebalances.
  const std::size_t per = num_chunks / static_cast<std::size_t>(threads_);
  const std::size_t extra = num_chunks % static_cast<std::size_t>(threads_);
  std::size_t next = 0;
  for (int w = 0; w < threads_; ++w) {
    Participant& p = parts_[w];
    const std::size_t take = per + (static_cast<std::size_t>(w) < extra);
    p.deque.reset(take);
    for (std::size_t c = 0; c < take; ++c) p.deque.fill_push(next++);
    p.err_chunk = SIZE_MAX;
    p.err = nullptr;
  }

  const std::uint64_t steals_before = [&] {
    std::uint64_t s = 0;
    for (int w = 0; w < threads_; ++w) s += parts_[w].steals;
    return s;
  }();

  remaining_.store(num_chunks, std::memory_order_release);
  {
    std::scoped_lock lock(mu_);
    body_ = &body;
    pending_ = threads_ - 1;
    ++round_;
  }
  cv_start_.notify_all();

  participate(0);
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
    body_ = nullptr;
  }

  stat_regions_.fetch_add(1, std::memory_order_relaxed);
  stat_tasks_.fetch_add(num_chunks, std::memory_order_relaxed);
  std::uint64_t region_steals = 0;
  for (int w = 0; w < threads_; ++w) region_steals += parts_[w].steals;
  region_steals -= steals_before;
  stat_steals_.fetch_add(region_steals, std::memory_order_relaxed);

  // par.* counters for regions/tasks/steals; per-worker busy time lives in
  // stats().  Steal counts are scheduling artifacts — they live here, never
  // in gated report metrics.
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("par.regions").add(1);
  reg.counter("par.tasks_executed").add(num_chunks);
  reg.counter("par.steals").add(region_steals);

  // Deterministic error selection: the lowest throwing chunk wins.
  std::exception_ptr err;
  std::size_t err_chunk = SIZE_MAX;
  for (int w = 0; w < threads_; ++w) {
    const Participant& p = parts_[w];
    if (p.err && p.err_chunk < err_chunk) {
      err_chunk = p.err_chunk;
      err = p.err;
    }
  }
  if (err) std::rethrow_exception(err);
}

TaskPool::Stats TaskPool::stats() const {
  Stats s;
  s.regions = stat_regions_.load(std::memory_order_relaxed);
  s.tasks = stat_tasks_.load(std::memory_order_relaxed);
  s.steals = stat_steals_.load(std::memory_order_relaxed);
  s.busy_seconds.reserve(static_cast<std::size_t>(threads_));
  for (int w = 0; w < threads_; ++w) {
    s.busy_seconds.push_back(parts_[w].busy_seconds);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Global pool + scoping
// ---------------------------------------------------------------------------

namespace {

std::mutex g_global_mu;
std::unique_ptr<TaskPool>& global_slot() {
  static std::unique_ptr<TaskPool> pool;
  return pool;
}

TaskPool& global_locked() {
  auto& slot = global_slot();
  if (!slot) {
    slot = std::make_unique<TaskPool>(0);
    obs::RunMetadata::set_effective_threads(slot->threads());
  }
  return *slot;
}

// Registered at static-init time so the telemetry bus can sample pool
// stats without obs ever depending on par (the same one-way arrow as
// RunMetadata::set_effective_threads).  Reads the slot directly — a
// telemetry sample must not create the pool — and only ever runs on the
// simulator's main thread, which is also the thread that launches regions,
// so the pool is quiescent whenever the provider reads its stats.
const bool g_worker_stats_registered = [] {
  obs::TelemetryBus::set_worker_stats_provider([]() -> obs::WorkerSnapshot {
    obs::WorkerSnapshot snap;
    std::scoped_lock lock(g_global_mu);
    auto& slot = global_slot();
    if (!slot) return snap;
    TaskPool::Stats s = slot->stats();
    snap.regions = s.regions;
    snap.tasks = s.tasks;
    snap.steals = s.steals;
    snap.busy_seconds = std::move(s.busy_seconds);
    return snap;
  });
  return true;
}();

}  // namespace

TaskPool& TaskPool::global() {
  std::scoped_lock lock(g_global_mu);
  return global_locked();
}

void set_global_threads(int threads) {
  std::scoped_lock lock(g_global_mu);
  auto& slot = global_slot();
  const int resolved = TaskPool::resolve_threads(threads);
  if (slot && slot->threads() == resolved) return;
  slot = std::make_unique<TaskPool>(resolved);
  obs::RunMetadata::set_effective_threads(slot->threads());
}

int global_threads() { return TaskPool::global().threads(); }

TaskPool& current_pool() {
  if (tls_pool_override != nullptr) return *tls_pool_override;
  return TaskPool::global();
}

PoolScope::PoolScope(TaskPool& pool) : prev_(tls_pool_override) {
  tls_pool_override = &pool;
}

PoolScope::~PoolScope() { tls_pool_override = prev_; }

// ---------------------------------------------------------------------------
// Range helpers
// ---------------------------------------------------------------------------

std::size_t suggested_grain(std::size_t total, std::size_t min_grain) {
  const std::size_t threads =
      static_cast<std::size_t>(current_pool().threads());
  const std::size_t tasks = threads * 16;
  std::size_t grain = tasks > 0 ? total / tasks : total;
  if (grain < min_grain) grain = min_grain;
  return grain == 0 ? 1 : grain;
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t, int)>&
        body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t total = end - begin;
  const std::size_t chunks = chunk_count(total, grain);
  current_pool().run_chunks(chunks, [&](std::size_t chunk, int worker) {
    const std::size_t lo = begin + chunk * grain;
    const std::size_t hi = lo + grain < end ? lo + grain : end;
    body(chunk, lo, hi, worker);
  });
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_chunks(begin, end, grain,
                      [&](std::size_t, std::size_t lo, std::size_t hi, int) {
                        body(lo, hi);
                      });
}

}  // namespace hyperpath::par
