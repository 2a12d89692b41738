#include "engine/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace re::engine {

namespace {

thread_local int t_worker_index = -1;

/// splitmix64 — the standard cheap seeded mixer (same family as
/// support/rng.hh); drives the claim permutation.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seeded Fisher-Yates permutation of [0, n): the order in which workers
/// claim units. Deterministic in (n, seed); independent of scheduling.
std::vector<std::size_t> claim_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

/// Shared state of one fan-out: the task set, the claim cursor and
/// error/cancel resolution. Among the units that threw, the lowest-indexed
/// one is rethrown — error selection depends on unit identity, never on
/// which worker lost a race.
struct Dispatch {
  std::size_t n = 0;
  const TaskFn* fn = nullptr;
  const CancelToken* cancel = nullptr;
  std::vector<std::size_t> order;
  std::atomic<std::size_t> next{0};

  std::exception_ptr first_error = nullptr;
  std::size_t first_error_index = 0;
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::atomic<bool> cancelled{false};

  /// Run one claimed unit, honoring the drain rules: after a failure the
  /// pool drains fast; after a cancellation no new unit starts (a unit is
  /// "started" the moment fn is entered — claimed-but-skipped is fine).
  void run_unit(std::size_t unit) {
    if (failed.load(std::memory_order_relaxed)) return;
    if (cancel != nullptr && cancel->requested()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    try {
      (*fn)(unit);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error == nullptr || unit < first_error_index) {
        first_error = std::current_exception();
        first_error_index = unit;
      }
      failed.store(true, std::memory_order_relaxed);
    }
  }
};

/// Claim-then-run until the permutation is exhausted.
void worker_loop(Dispatch& d, int worker) {
  t_worker_index = worker;
  for (;;) {
    const std::size_t slot = d.next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= d.n) break;
    d.run_unit(d.order[slot]);
  }
  t_worker_index = -1;
}

}  // namespace

const char* scheduler_backend_name(SchedulerBackend) { return "forkjoin"; }

int current_worker() { return t_worker_index; }

void run_parallel(const SchedulerConfig& config, std::size_t n,
                  const TaskFn& fn, const CancelToken* cancel) {
  if (n == 0) return;
  const std::size_t workers = std::max<std::size_t>(
      2, std::min(config.workers, n));  // the serial path lives in Executor

  Dispatch d;
  d.n = n;
  d.fn = &fn;
  d.cancel = cancel;
  d.order = claim_order(n, config.seed);

  // The calling thread is worker 0; save/restore its worker mark so a
  // direct call from a pool thread (the executor prevents this, tests may
  // not) cannot leak state.
  const int caller_mark = t_worker_index;

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.emplace_back([&d, w] { worker_loop(d, static_cast<int>(w)); });
  }
  worker_loop(d, 0);
  for (std::thread& t : pool) t.join();
  t_worker_index = caller_mark;

  // Unit errors outrank cancellation: they describe work that actually ran
  // and the lowest-index selection keeps them deterministic.
  if (d.first_error != nullptr) std::rethrow_exception(d.first_error);
  if (d.cancelled.load(std::memory_order_relaxed)) throw Cancelled();
}

}  // namespace re::engine
