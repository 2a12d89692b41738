#include "engine/executor.hh"

#include <algorithm>
#include <cstdio>

namespace re::engine {

Executor::Executor(int jobs, std::uint64_t seed)
    : jobs_(std::max(1, jobs)), seed_(seed) {}

bool Executor::in_worker() { return current_worker() >= 0; }

void Executor::for_each(std::size_t n, const TaskFn& fn,
                        const CancelToken* cancel) const {
  if (n == 0) return;

  // Serial path, and the nested-fan-out path: run inline. A worker that
  // fans out again would deadlock a fixed pool and gains nothing on a
  // machine already saturated by the outer fan-out.
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), n);
  if (workers <= 1 || in_worker()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->requested()) throw Cancelled();
      fn(i);
    }
    return;
  }

  SchedulerConfig config;
  config.workers = workers;
  config.seed = seed_;
  run_parallel(config, n, fn, cancel);
}

std::string describe_executor(const Executor& executor) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "jobs=%d seed=0x%016llx",
                executor.jobs(),
                static_cast<unsigned long long>(executor.seed()));
  return std::string(buffer);
}

}  // namespace re::engine
